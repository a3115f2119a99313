"""Microbenchmark drivers — Figures 3, 4 and 5 of the paper (§4.2).

Each driver rebuilds a fresh deployment per data point and repetition
(the paper: "Each test is executed 5 times, for each set of clients"),
runs the client processes on machines co-located with the data
providers, and reports the *average throughput* over clients — each
client's total bytes over its own busy span, averaged. The drivers take
that measurement themselves: every client op they issue runs under
:func:`timed`, and :func:`mean_client_mibps` reduces the timings. The
storage systems under test keep no per-op record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..common.config import ExperimentConfig
from ..common.units import MiB
from ..obs import Observability
from ..sim.core import Environment, Event
from .deploy import deploy_bsfs, record_sim_counters

#: the microbenchmarks' unit of I/O: one 64 MB chunk
CHUNK = 64 * MiB

#: one completed client op: ``(client, start, end, nbytes)``
OpTiming = Tuple[str, float, float, int]


def timed(
    env: Environment, log: List[OpTiming], client: str, nbytes: int, op
) -> Generator[Event, None, object]:
    """Generator: run the client op *op* (a generator) to completion,
    then append its ``(client, start, end, nbytes)`` to *log*. Returns
    what *op* returns. An op that raises is not logged."""
    start = env.now
    result = yield from op
    log.append((client, start, env.now, nbytes))
    return result


def mean_client_mibps(log: Sequence[OpTiming]) -> float:
    """The paper's metric over one kind of op: each client's bytes over
    its busy span (first start to last end), averaged over clients, in
    MiB/s. A client whose busy span is zero counts 0.0, not ``inf``,
    which would poison the mean; an empty *log* reads 0.0."""
    # client -> [first start, last end, bytes]; clients stay in the
    # order of their first completed op
    spans: Dict[str, list] = {}
    for client, start, end, nbytes in log:
        span = spans.get(client)
        if span is None:
            spans[client] = [start, end, nbytes]
        else:
            span[0] = min(span[0], start)
            span[1] = max(span[1], end)
            span[2] += nbytes
    per_client = [
        nbytes / (end - start) if end > start else 0.0
        for start, end, nbytes in spans.values()
    ]
    return float(np.mean(per_client)) / MiB if per_client else 0.0


@dataclass(slots=True)
class DataPoint:
    """One x-position of a figure, aggregated over repetitions."""

    x: int
    mean_mbps: float
    std_mbps: float
    samples: List[float] = field(default_factory=list)


def _rep_config(config: ExperimentConfig, rep: int) -> ExperimentConfig:
    """A per-repetition copy with an independent seed (``cluster.seed``
    is the only field that differs from *config*)."""
    cluster = replace(config.cluster, seed=config.cluster.seed + 1000 * rep + 1)
    return replace(config, cluster=cluster)


def sweep(
    xs: Sequence[int],
    config: ExperimentConfig,
    run_one: Callable[[int, ExperimentConfig], float],
) -> List[DataPoint]:
    """One :class:`DataPoint` per x, aggregated over repetitions.

    ``run_one(x, rep_config)`` builds a fresh deployment from the
    per-repetition config, runs it and returns one throughput sample in
    MiB/s; it is called ``config.repetitions`` times per x, in order.
    """
    points: List[DataPoint] = []
    for x in xs:
        samples = [
            run_one(x, _rep_config(config, rep))
            for rep in range(config.repetitions)
        ]
        points.append(
            DataPoint(
                x=x,
                mean_mbps=float(np.mean(samples)),
                std_mbps=float(np.std(samples)),
                samples=samples,
            )
        )
    return points


def _run(deployment, procs, obs: Optional[Observability] = None) -> None:
    env = deployment.env

    def main() -> Generator[Event, None, None]:
        yield env.all_of(procs)

    env.run(env.process(main(), name="main"))
    record_sim_counters(deployment.cluster, obs)


def _client_nodes(deployment, count: int, phase: int = 0) -> List[str]:
    """*count* client machines, round-robin over the provider nodes.

    *phase* offsets the assignment so reader and appender populations
    spread over different machines first (as when launching two separate
    client groups on the reservation).
    """
    nodes = deployment.client_nodes
    return [nodes[(phase + i) % len(nodes)] for i in range(count)]


def concurrent_appends(
    client_counts: Sequence[int],
    config: ExperimentConfig,
    chunks_per_client: int = 1,
    obs: Optional[Observability] = None,
) -> List[DataPoint]:
    """Figure 3: N concurrent clients each append a 64 MB chunk to the
    same file; report the average append throughput per client."""

    def run_one(n: int, cfg: ExperimentConfig) -> float:
        if n < 1:
            raise ValueError("client counts must be >= 1")
        bsfs = deploy_bsfs(cfg, obs=obs)
        env = bsfs.env
        path = "/bench/shared"
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], path)))
        appends: List[OpTiming] = []

        def appender(client: str) -> Generator[Event, None, None]:
            for _ in range(chunks_per_client):
                op = bsfs.append_proc(client, path, CHUNK)
                yield from timed(env, appends, client, CHUNK, op)

        _run(bsfs, [env.process(appender(c), name=f"app-{i}")
                    for i, c in enumerate(_client_nodes(bsfs, n))], obs=obs)
        return mean_client_mibps(appends)

    return sweep(client_counts, config, run_one)


def _mixed_workload(
    config: ExperimentConfig,
    n_readers: int,
    chunks_per_reader: int,
    n_appenders: int,
    chunks_per_appender: int,
    obs: Optional[Observability] = None,
) -> Tuple[List[OpTiming], List[OpTiming]]:
    """Shared setup of Figures 4 and 5: *n_readers* clients each read
    *chunks_per_reader* 64 MB chunks from disjoint regions of a shared
    file while *n_appenders* clients each append *chunks_per_appender*
    chunks to it. *config* is one repetition's (see :func:`sweep`).
    Returns the timings of the reads and of the appends, apart."""
    bsfs = deploy_bsfs(config, obs=obs)
    env = bsfs.env
    path = "/bench/shared"
    # preload the region the readers will consume (disjoint per reader)
    env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], path)))
    if n_readers:
        bsfs.preload(path, n_readers * chunks_per_reader * CHUNK)
    readers = _client_nodes(bsfs, n_readers)
    appenders = _client_nodes(bsfs, n_appenders, phase=n_readers)
    reads: List[OpTiming] = []
    appends: List[OpTiming] = []

    def reader(idx: int, client: str) -> Generator[Event, None, None]:
        base = idx * chunks_per_reader * CHUNK
        for c in range(chunks_per_reader):
            op = bsfs.read_proc(client, path, base + c * CHUNK, CHUNK)
            yield from timed(env, reads, client, CHUNK, op)

    def appender(client: str) -> Generator[Event, None, None]:
        for _ in range(chunks_per_appender):
            op = bsfs.append_proc(client, path, CHUNK)
            yield from timed(env, appends, client, CHUNK, op)

    procs = [
        env.process(reader(i, c), name=f"reader-{i}")
        for i, c in enumerate(readers)
    ] + [
        env.process(appender(c), name=f"appender-{i}")
        for i, c in enumerate(appenders)
    ]
    _run(bsfs, procs, obs=obs)
    return reads, appends


def separate_writes_comparison(
    client_counts: Sequence[int],
    config: ExperimentConfig,
    obs: Optional[Observability] = None,
) -> "tuple[List[DataPoint], List[DataPoint]]":
    """Supplementary head-to-head: N clients each write one 64 MB chunk
    to their *own* file — the only write pattern both systems support
    (the paper compares the systems end-to-end in Figure 6 instead,
    because HDFS cannot run the append microbenchmarks at all).

    Returns (HDFS points, BSFS points); matching curves support the
    paper's 'no extra cost' conclusion at the file-system level.
    """
    from .deploy import deploy_hdfs

    def hdfs_one(n: int, cfg: ExperimentConfig) -> float:
        # one file per client (Figure 1's pattern)
        if n < 1:
            raise ValueError("client counts must be >= 1")
        hdfs = deploy_hdfs(cfg, obs=obs)
        env = hdfs.env
        writes: List[OpTiming] = []
        procs = []
        for i in range(n):
            client = hdfs.client_nodes[i % len(hdfs.client_nodes)]
            op = hdfs.write_file_proc(client, f"/bench/part-{i:05d}", CHUNK)
            procs.append(env.process(timed(env, writes, client, CHUNK, op)))
        _run(hdfs, procs, obs=obs)
        return mean_client_mibps(writes)

    def bsfs_one(n: int, cfg: ExperimentConfig) -> float:
        # one file per client, written via append
        bsfs = deploy_bsfs(cfg, obs=obs)
        env = bsfs.env
        clients = _client_nodes(bsfs, n)
        for i, c in enumerate(clients):
            env.run(env.process(bsfs.create_proc(c, f"/bench/part-{i:05d}")))
        appends: List[OpTiming] = []
        procs = []
        for i, c in enumerate(clients):
            op = bsfs.append_proc(c, f"/bench/part-{i:05d}", CHUNK)
            procs.append(env.process(timed(env, appends, c, CHUNK, op)))
        _run(bsfs, procs, obs=obs)
        return mean_client_mibps(appends)

    # two independent sweeps: every deployment is its own kernel, so the
    # order the two systems run in changes no simulated value
    return (
        sweep(client_counts, config, hdfs_one),
        sweep(client_counts, config, bsfs_one),
    )


def reads_under_appends(
    appender_counts: Sequence[int],
    config: ExperimentConfig,
    n_readers: int = 100,
    chunks_per_reader: int = 10,
    chunks_per_appender: int = 16,
    obs: Optional[Observability] = None,
) -> List[DataPoint]:
    """Figure 4: fixed 100 readers (10 chunks each); sweep the number of
    concurrent appenders (16 chunks each); report read throughput."""

    def run_one(n_app: int, cfg: ExperimentConfig) -> float:
        reads, _appends = _mixed_workload(
            cfg, n_readers, chunks_per_reader, n_app, chunks_per_appender,
            obs=obs,
        )
        return mean_client_mibps(reads)

    return sweep(appender_counts, config, run_one)


def appends_under_reads(
    reader_counts: Sequence[int],
    config: ExperimentConfig,
    n_appenders: int = 100,
    chunks_per_reader: int = 10,
    chunks_per_appender: int = 10,
    obs: Optional[Observability] = None,
) -> List[DataPoint]:
    """Figure 5: fixed 100 appenders; sweep the number of concurrent
    readers; both access 10 chunks of 64 MB; report append throughput."""

    def run_one(n_read: int, cfg: ExperimentConfig) -> float:
        _reads, appends = _mixed_workload(
            cfg, n_read, chunks_per_reader, n_appenders, chunks_per_appender,
            obs=obs,
        )
        return mean_client_mibps(appends)

    return sweep(reader_counts, config, run_one)

"""Figure 6: completion time of the data join application vs reducers.

The paper runs the Hadoop-contrib *data join* on 270 nodes with the
input fixed (two 320 MB files → 10 map chunks) and the number of
reducers swept 1…230, in two scenarios: the original framework on HDFS
(one output file per reducer) and the modified framework on BSFS (all
reducers append to one shared file). The measured completion time is
roughly constant in both scenarios "because data join is a
computation-intensive application".

This driver runs the *simulated* job: map and reduce tasks are DES
processes whose I/O flows through the same storage models as the
microbenchmarks and whose CPU time comes from the calibration constants
below. The CPU constants are the one thing we cannot derive from the
paper (it reports no per-phase breakdown); they are chosen so the
absolute completion time sits in the paper's plotted range (y-axis up
to 900 s) with the map phase dominant — which is exactly what the
paper asserts drives the flat shape. The *comparisons* (HDFS vs BSFS,
flatness in R, file counts) do not depend on the constants.

The functional twin of this experiment — the real framework executing
the real join on real bytes, output validated against an oracle — runs
at reduced scale in ``tests/apps/test_datajoin.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, NamedTuple, Optional, Sequence, Tuple

from ..bsfs.simulated import SimBSFS
from ..common.config import ExperimentConfig
from ..common.units import MiB
from ..hdfs.simulated import SimHDFS
from ..obs import NULL_OBS, Observability
from ..sim.core import Event
from .deploy import deploy_bsfs, deploy_hdfs, record_sim_counters

#: the join's two input files (two 320 MB files in the paper)
INPUT_PATHS = ("/join/input-a", "/join/input-b")
#: the modified framework's one output file
SHARED_OUTPUT = "/join/out-shared"


@dataclass(slots=True)
class DataJoinCalibration:
    """CPU-side constants of the simulated job (see module docstring)."""

    #: input volume per map task (the paper: 64 MB chunks, 10 mappers)
    chunk_bytes: int = 64 * MiB
    #: total input volume (two 320 MB files)
    input_bytes: int = 2 * 320 * MiB
    #: join output volume ("generates 6.3 GB of output data")
    output_bytes: int = int(6.3 * 1024 * MiB)
    #: seconds a mapper spends matching keys in one 64 MB chunk
    map_seconds_per_chunk: float = 500.0
    #: seconds of combining work per MiB of produced output (split over
    #: the reducers)
    reduce_seconds_per_output_mib: float = 0.02
    #: fixed per-task startup cost (JVM launch, heartbeat latency)
    task_overhead_seconds: float = 3.0
    #: intermediate (map-output) volume relative to the input
    intermediate_expansion: float = 1.0

    @property
    def n_map_tasks(self) -> int:
        return -(-self.input_bytes // self.chunk_bytes)


@dataclass(slots=True)
class DataJoinPoint:
    """One x-position of Figure 6."""

    n_reducers: int
    completion_seconds: float
    output_files: int
    scenario: str  # "hdfs-separate" | "bsfs-shared"


def _spread(total: int, parts: int) -> List[int]:
    """Split *total* bytes into *parts* near-equal positive chunks."""
    base = total // parts
    rem = total - base * parts
    return [base + (1 if i < rem else 0) for i in range(parts)]


class _Storage(NamedTuple):
    """What Figure 6's two scenarios do differently: the deployment and
    its inputs, where map tasks run, and where a reducer's output goes.
    Everything else — the map phase, the barrier, the shuffle and the
    reduce waves — is shared (:func:`run_datajoin_point`)."""

    #: the :class:`DataJoinPoint` scenario label
    label: str
    #: the deployment: its cluster, the tasktracker machines
    #: (``client_nodes``), and ``read_proc(host, path, offset, nbytes)``
    #: for one chunk read
    dep: SimHDFS | SimBSFS
    #: one map task per input chunk, on a machine holding the chunk
    map_hosts: List[str]
    #: ``(host, partition, nbytes) -> process``: a reducer's output write
    write_output: Callable[[str, int, int], Generator[Event, None, object]]
    #: the number of output files the job left
    output_files: Callable[[], int]


def _inputs(cal: DataJoinCalibration) -> List[Tuple[str, int]]:
    half = cal.input_bytes // 2
    return [(INPUT_PATHS[0], half), (INPUT_PATHS[1], cal.input_bytes - half)]


def _hdfs(config: ExperimentConfig, cal: DataJoinCalibration, obs) -> _Storage:
    """The original framework on HDFS: one output file per reducer."""
    hdfs = deploy_hdfs(config, obs=obs)
    for path, nbytes in _inputs(cal):
        hdfs.preload(path, nbytes)
    # map tasks run data-local: on the datanode holding their chunk
    map_hosts = [
        loc.hosts[0]
        for path in INPUT_PATHS
        for loc in hdfs.namenode.get_block_locations(path, 0, cal.input_bytes)
    ]
    return _Storage(
        "hdfs-separate",
        hdfs,
        map_hosts[: cal.n_map_tasks],
        lambda host, partition, nbytes: hdfs.write_file_proc(
            host, f"/join/out/part-{partition:05d}", nbytes
        ),
        lambda: sum(
            not s.is_directory for s in hdfs.namenode.list_dir("/join/out")
        ),
    )


def _bsfs(config: ExperimentConfig, cal: DataJoinCalibration, obs) -> _Storage:
    """The modified framework on BSFS: every reducer appends to one
    shared output file."""
    bsfs = deploy_bsfs(config, obs=obs)
    env = bsfs.env
    for path in INPUT_PATHS:
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], path)))
    for path, nbytes in _inputs(cal):
        bsfs.preload(path, nbytes)
    env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], SHARED_OUTPUT)))
    map_hosts = [
        providers[0]
        for path in INPUT_PATHS
        for _off, _len, providers in bsfs.blobseer.layout(
            bsfs.namespace.get(path).blob_id
        )
    ]
    return _Storage(
        "bsfs-shared",
        bsfs,
        map_hosts[: cal.n_map_tasks],
        lambda host, _partition, nbytes: bsfs.append_proc(
            host, SHARED_OUTPUT, nbytes
        ),
        lambda: sum(
            not s.is_directory and "out" in s.path
            for s in bsfs.namespace.list_dir("/join")
        ),
    )


_SCENARIOS = {"hdfs": _hdfs, "bsfs": _bsfs}


def run_datajoin_point(
    scenario: str,
    n_reducers: int,
    config: ExperimentConfig,
    calibration: DataJoinCalibration | None = None,
    obs: Optional[Observability] = None,
) -> DataJoinPoint:
    """One Figure 6 point: *scenario* ``"hdfs"`` (original framework) or
    ``"bsfs"`` (modified framework, shared output file). Drives map
    phase → barrier → reduce waves and reports the makespan."""
    cal = calibration or DataJoinCalibration()
    obs = obs or NULL_OBS
    tracer = obs.tracer
    storage = _SCENARIOS[scenario](config, cal, obs)
    cluster, map_hosts = storage.dep.cluster, storage.map_hosts
    env = cluster.env

    def map_task(host: str, path: str, offset: int) -> Generator[Event, None, None]:
        sp = tracer.start(
            "mr.map_task", cat="mapreduce", track=host, scenario=scenario, path=path
        )
        yield env.timeout(cal.task_overhead_seconds)
        yield env.process(storage.dep.read_proc(host, path, offset, cal.chunk_bytes))
        yield env.timeout(cal.map_seconds_per_chunk)
        # spill the map output to the local disk
        yield cluster.node(host).disk.write(
            int(cal.chunk_bytes * cal.intermediate_expansion)
        )
        sp.finish()

    def reduce_task(
        host: str, partition: int, out_bytes: int
    ) -> Generator[Event, None, None]:
        sp = tracer.start(
            "mr.reduce_task",
            cat="mapreduce",
            track=host,
            scenario=scenario,
            partition=partition,
        )
        yield env.timeout(cal.task_overhead_seconds)
        sp_sh = tracer.start("mr.shuffle", cat="mapreduce", parent=sp)
        yield env.process(
            _shuffle(cluster, env, map_hosts, host, cal, n_reducers, partition)
        )
        sp_sh.finish(n_maps=len(map_hosts))
        yield env.timeout(
            cal.reduce_seconds_per_output_mib * (out_bytes / MiB)
        )
        yield env.process(storage.write_output(host, partition, out_bytes))
        sp.finish()

    def job() -> Generator[Event, None, None]:
        # map phase: one task per input chunk, on the chunk's holder
        half = cal.input_bytes // 2
        maps = []
        for i, host in enumerate(map_hosts):
            offset = i * cal.chunk_bytes
            path = INPUT_PATHS[0] if offset < half else INPUT_PATHS[1]
            offset = offset if offset < half else offset - half
            maps.append(env.process(map_task(host, path, offset), name=f"map-{i}"))
        yield env.all_of(maps)
        # reduce phase: round-robin over the tasktracker machines, in
        # waves bounded by the cluster's reduce slots
        trackers = storage.dep.client_nodes
        out_sizes = _spread(cal.output_bytes, n_reducers)
        slots = max(1, 2 * len(trackers))  # 2 reduce slots per node
        partition = 0
        while partition < n_reducers:
            wave = []
            for _ in range(min(slots, n_reducers - partition)):
                host = trackers[partition % len(trackers)]
                wave.append(
                    env.process(
                        reduce_task(host, partition, out_sizes[partition]),
                        name=f"reduce-{partition}",
                    )
                )
                partition += 1
            yield env.all_of(wave)

    start = env.now
    env.run(env.process(job(), name="datajoin-job"))
    completion = env.now - start
    files = storage.output_files()
    record_sim_counters(cluster, obs)
    return DataJoinPoint(n_reducers, completion, files, storage.label)


def _shuffle(
    cluster, env, map_hosts: List[str], reducer_host: str,
    cal: DataJoinCalibration, n_reducers: int, partition: int,
) -> Generator[Event, None, None]:
    """One reducer fetching its partition of every map task's output.

    Each map task's intermediate output is split across the reducers
    with the remainder spread over the first partitions (like
    :func:`_spread`) — truncating to ``total // n_reducers`` for
    everyone used to drop the *entire* shuffle once reducers
    outnumbered intermediate bytes. All ``n_maps`` fetches start through
    the batch transfer API: they begin at the same simulated instant,
    so they cost one coalesced reallocation.
    """
    total = int(cal.chunk_bytes * cal.intermediate_expansion)
    base = total // n_reducers
    per_map = base + (1 if partition < total - base * n_reducers else 0)
    if per_map <= 0:
        return
    transfers = cluster.network.transfer_many(
        (host, reducer_host, per_map) for host in map_hosts
    )
    yield env.all_of(transfers)


def sweep(
    reducer_counts: Sequence[int],
    config: ExperimentConfig,
    calibration: DataJoinCalibration | None = None,
    obs: Optional[Observability] = None,
) -> Tuple[List[DataJoinPoint], List[DataJoinPoint]]:
    """Figure 6's two series: (HDFS-separate, BSFS-shared)."""
    hdfs_pts, bsfs_pts = (
        [
            run_datajoin_point(scenario, r, config, calibration, obs=obs)
            for r in reducer_counts
        ]
        for scenario in ("hdfs", "bsfs")
    )
    return hdfs_pts, bsfs_pts

"""Open-loop concurrent-append scale experiment — Figure 8 (beyond the
paper).

The paper's evaluation is *closed-loop*: N clients in lock-step, each
issuing its next append only after the previous one returned. Closed
loops cannot overload a system — the offered rate implicitly throttles
to the service rate — so they cannot locate the capacity knee. Figure 8
instead offers load on an **open loop**: a Poisson arrival schedule
(:func:`~repro.workloads.generators.poisson_arrivals`) fixed up front,
swept across offered rates, with tens of thousands of *flyweight*
clients — integer ids on a shared schedule, one protocol generator
spawned per in-flight op, never one long-lived process per client. The
deployment runs on a multi-rack topology (two-level fabric; see
:meth:`~repro.sim.network.Network.add_rack`).

The reported curve is goodput and p99 append latency versus offered
load. The knee sits where the metadata plane's serialized sections
saturate: below it goodput tracks the offered load and p99 stays near
the lone-append latency; beyond it goodput flattens at capacity and p99
grows with the backlog. The sweep deploys the metadata fast path (group
commit, node/record caches — see ``_rack_config``), which amortizes the
per-append version-manager and namespace-manager round trips over
publish batches and lifts the knee well past the classic serialized
bound of ``1 / (2 * namespace_rpc_time)`` appends/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, List, Optional, Sequence

import numpy as np

from ..common.config import ExperimentConfig
from ..common.units import MiB
from ..obs import Observability
from ..sim.core import Event
from ..workloads.generators import ArrivalProcess, poisson_arrivals
from .deploy import deploy_bsfs, record_sim_counters

#: bytes appended per open-loop op — small enough that the version
#: manager's critical section, not the data path, is the capacity knee
#: (the regime the shared-output-file design must survive)
OP_BYTES = 1 * MiB

#: shared output files the flyweight clients append to (the modified
#: framework's pattern: many writers, few files). 32 keeps per-file
#: version chains short enough that the metadata overlay walk does not
#: dominate the overloaded points, while the knee itself — set by the
#: version manager's serialized assignment — is independent of it.
N_SHARD_FILES = 32

#: default multi-rack shape when the caller's config is flat: racks of
#: 30 nodes on 4x-NIC uplinks (a 7.5:1 oversubscribed two-level tree)
DEFAULT_RACKS = 9
RACK_UPLINK_NICS = 4.0


@dataclass(slots=True)
class OpenLoopPoint:
    """One offered-load position of the sweep."""

    offered_ops_s: float
    #: ops in the arrival schedule / distinct flyweight clients touched
    ops: int
    clients: int
    #: completed ops over the full drain span (arrival start -> last
    #: completion), ops/s
    goodput_ops_s: float
    p50_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    makespan_s: float
    #: ops that raised instead of completing; they have no latency and
    #: no share of the goodput
    failed: int = 0
    #: arrival-to-commit latency of each completed op
    latencies_s: List[float] = field(default_factory=list, repr=False)


def _rack_config(config: ExperimentConfig) -> ExperimentConfig:
    """The sweep's deployment config: the caller's, lifted onto a
    multi-rack topology when it is still flat, on the ``fast`` profile
    (group commit + node/record caches) — the regime this experiment
    exists to measure. The profile is applied whatever the caller set:
    group commit and the record cache come on, the node cache grows to
    at least the profile's size. Only ``cluster`` and ``blobseer`` ever
    differ from *config*."""
    cluster = config.cluster
    if cluster.racks == 0:
        cluster = replace(
            cluster,
            racks=DEFAULT_RACKS,
            rack_bandwidth=RACK_UPLINK_NICS * cluster.nic_bandwidth,
        )
    return replace(config, cluster=cluster, blobseer=config.blobseer.fast())


def run_open_loop(
    config: ExperimentConfig,
    schedule: ArrivalProcess,
    append_bytes: int = OP_BYTES,
    n_files: int = N_SHARD_FILES,
    obs: Optional[Observability] = None,
) -> OpenLoopPoint:
    """Offer *schedule* to a fresh BSFS deployment; drain; measure.

    One driver process walks the schedule and spawns a fresh
    (short-lived) append generator per arrival — the flyweight-client
    pattern — mapping client ids round-robin onto the provider machines
    and onto *n_files* shared shard files. Latency is arrival-to-commit
    per completed op; goodput is completions over the full span including
    the post-arrival backlog drain, so an overloaded point reports
    service capacity rather than the offered rate. An op that raises
    (an append aborted by its lease, say) counts in ``failed`` only.
    """
    bsfs = deploy_bsfs(config, obs=obs)
    env = bsfs.env
    nodes = bsfs.client_nodes
    n_nodes = len(nodes)
    files = [f"/openloop/shard-{i:02d}" for i in range(n_files)]
    for path in files:
        env.run(env.process(bsfs.create_proc(nodes[0], path)))
    latencies: List[float] = []
    record = latencies.append
    failed = 0
    n_ops = len(schedule)
    all_done = Event(env)

    def op_done(ev: Event, start: float) -> None:
        # the callback takes the op's failure too, so the kernel never
        # raises it: a failed op is counted here, never timed
        nonlocal failed
        if ev.ok:
            record(env.now - start)
        else:
            failed += 1
        if len(latencies) + failed == n_ops:
            all_done.succeed(None)

    def driver() -> Generator[Event, None, None]:
        timeout = env.timeout
        process = env.process
        append_proc = bsfs.append_proc
        for t, cid in schedule:
            dt = t - env.now
            if dt > 0.0:
                yield timeout(dt)
            start = env.now
            op = process(
                append_proc(
                    nodes[cid % n_nodes], files[cid % n_files], append_bytes
                )
            )
            op.callbacks.append(lambda ev, s=start: op_done(ev, s))

    t0 = env.now
    env.run(env.process(driver(), name="openloop-driver"))
    # arrivals done; wait out the backlog of in-flight ops. The stop
    # condition is the last op's commit, NOT a full queue drain — the
    # deployment keeps e.g. 30 s append-lease expiry checks scheduled
    # past the last completion, and idling up to them would dilute the
    # goodput.
    if len(latencies) + failed < n_ops:
        env.run(all_done)
    record_sim_counters(bsfs.cluster, obs)
    makespan = env.now - t0
    lat = np.asarray(latencies, dtype=np.float64)
    ops = len(schedule)
    return OpenLoopPoint(
        offered_ops_s=schedule.offered_load(),
        ops=ops,
        clients=schedule.distinct_clients,
        goodput_ops_s=len(lat) / makespan if makespan > 0 else 0.0,
        p50_latency_s=float(np.percentile(lat, 50)) if len(lat) else 0.0,
        p99_latency_s=float(np.percentile(lat, 99)) if len(lat) else 0.0,
        mean_latency_s=float(lat.mean()) if len(lat) else 0.0,
        makespan_s=makespan,
        failed=failed,
        latencies_s=[float(x) for x in lat],
    )


def open_loop_sweep(
    offered_loads: Sequence[float],
    config: ExperimentConfig,
    duration: float,
    n_clients: int,
    append_bytes: int = OP_BYTES,
    n_files: int = N_SHARD_FILES,
    obs: Optional[Observability] = None,
) -> List[OpenLoopPoint]:
    """Sweep offered load (ops/s), offered as Poisson arrivals, over
    fresh multi-rack deployments on the ``fast`` metadata profile,
    whichever fast-path knobs ``config.blobseer`` arrives with
    (``_rack_config``)."""
    cfg = _rack_config(config)
    cfg.validate()
    points: List[OpenLoopPoint] = []
    for rate in offered_loads:
        if rate <= 0:
            raise ValueError("offered loads must be positive")
        schedule = poisson_arrivals(
            rate, duration, n_clients, seed=cfg.cluster.seed
        )
        points.append(
            run_open_loop(
                cfg,
                schedule,
                append_bytes=append_bytes,
                n_files=n_files,
                obs=obs,
            )
        )
    return points


def find_knee(points: Sequence[OpenLoopPoint]) -> Optional[OpenLoopPoint]:
    """The first sweep point past *sustained* saturation (None while the
    system keeps up).

    A point is short when its goodput is under 90% of the offered load,
    but one noisy mid-sweep dip on an otherwise-keeping-up sweep is not
    a knee: the shortfall must persist — either for the remainder of the
    sweep or for at least two consecutive points. A lone short *final*
    point still qualifies (the remainder-of-sweep condition is trivially
    met at the highest offered load, which is where real saturation
    shows up first).
    """
    short = [p.goodput_ops_s < 0.9 * p.offered_ops_s for p in points]
    n = len(short)
    for i, is_short in enumerate(short):
        if not is_short:
            continue
        if all(short[i:]) or (i + 1 < n and short[i + 1]):
            return points[i]
    return None

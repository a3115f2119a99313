"""Simulated Grid'5000 deployments, following the paper's §4.1 setup.

"Both the microbenchmarks and the Map/Reduce applications were performed
using 270 nodes … For HDFS we deployed the namenode on a dedicated
machine and the datanodes on the remaining nodes (one entity per
machine). For BSFS, we deployed one version manager, one provider
manager, one node for the namespace manager and 20 metadata providers.
The remaining nodes are used as data providers." Clients are launched
on the same machines as the datanodes / data providers.
"""

from __future__ import annotations

import gc
from typing import Optional

from ..blobseer.simulated import BlobSeerRoles
from ..bsfs.simulated import BSFSRoles, SimBSFS
from ..common.config import ExperimentConfig
from ..hdfs.simulated import HDFSRoles, SimHDFS
from ..obs import Observability
from ..sim.cluster import SimCluster


def _collect_previous_deployment() -> None:
    """The one collection between deployments.

    A deployment is a single reference cycle (cluster ↔ environment ↔
    processes ↔ services), so dropping it frees nothing until the
    cyclic collector runs — and the kernel pauses the collector while
    it dispatches (:meth:`~repro.sim.core.Environment.run`), which is
    most of a figure's host time. Collecting here, before the next
    cluster is built, keeps a sweep's peak memory at one deployment.
    A full collection, not a young one: a deployment that lived through
    ten young collections has been promoted out of a young pass's reach
    (DESIGN.md §5d has the measurements).
    """
    gc.collect()


def deploy_bsfs(
    config: ExperimentConfig, obs: Optional[Observability] = None
) -> SimBSFS:
    """Materialize the paper's BSFS deployment on a fresh simulation."""
    config.validate()
    _collect_previous_deployment()
    cluster = SimCluster(config.cluster, obs=obs)
    names = cluster.names()
    n_meta = config.blobseer.metadata_providers
    needed = 3 + n_meta + 1
    if len(names) < needed:
        raise ValueError(
            f"cluster of {len(names)} nodes too small for BSFS deployment "
            f"(need >= {needed})"
        )
    roles = BSFSRoles(
        blobseer=BlobSeerRoles(
            version_manager=names[0],
            provider_manager=names[1],
            metadata_providers=tuple(names[3 : 3 + n_meta]),
            data_providers=tuple(names[3 + n_meta :]),
        ),
        namespace_manager=names[2],
    )
    bsfs = SimBSFS(cluster, roles, config.blobseer, obs=obs)
    attach_sim_samplers(
        cluster, obs, engine=bsfs.engine, vm_core=bsfs.blobseer.core
    )
    return bsfs


#: default telemetry sampling period, in simulated seconds — fine
#: enough that even sub-second benchmark runs collect a few points;
#: the ring buffer caps retention so long runs stay bounded
SAMPLE_PERIOD_S = 0.02

#: sampler decimation: the period doubles after every this many ticks,
#: so a run lasting T sim-seconds pays O(log T) sampler events rather
#: than T / SAMPLE_PERIOD_S — a long Map/Reduce join must not spend its
#: event budget on telemetry
SAMPLE_DOUBLE_AFTER = 256


def attach_sim_samplers(
    cluster: SimCluster,
    obs: Optional[Observability],
    engine=None,
    vm_core=None,
    period: float = SAMPLE_PERIOD_S,
) -> None:
    """Attach periodic telemetry samplers to a fresh deployment.

    Every *period* simulated seconds the samplers record, as
    :class:`~repro.obs.timeseries.TimeSeries` points:

    * ``sim.net.aggregate_rate_bps`` / ``sim.net.active_flows`` — fabric
      utilization (summed allocated flow rates) and in-flight flow count;
    * ``sim.disk.queue_max`` — the deepest spindle queue across nodes;
    * ``vm.commit_queue_len`` — versions queued for their metadata turn
      (when *vm_core* is given);
    * ``rpc.inflight.<endpoint>`` — RPCs queued per control endpoint
      (when *engine*, a :class:`~repro.engine.des.DesEngine`, is given).

    The ticking stops with the workload (see
    :meth:`~repro.sim.core.Environment.every`), so a sampled run drains
    its queue exactly like an unsampled one, and the sampling period
    doubles every :data:`SAMPLE_DOUBLE_AFTER` ticks so telemetry costs
    ``O(log T)`` events over a ``T``-second simulation. No-op when
    *obs* is disabled.
    """
    if obs is None or not obs.registry.enabled:
        return
    env = cluster.env
    reg = obs.registry
    net = cluster.network
    # hoist the spindle waiting deques once: the per-tick max is then
    # len() over N deques instead of N×2 Python property hops — over a
    # 270-node cluster this sampler used to dominate fig6's wall time
    disk_queues = [
        cluster.node(name).disk._spindle._waiting for name in cluster.names()
    ]
    ts_rate = reg.timeseries("sim.net.aggregate_rate_bps")
    ts_flows = reg.timeseries("sim.net.active_flows")
    ts_disk = reg.timeseries("sim.disk.queue_max")
    ts_vm = reg.timeseries("vm.commit_queue_len") if vm_core is not None else None
    # the engine's control-endpoint table: each slot's waiting queue is
    # that endpoint's in-flight depth
    control = engine._control if engine is not None else None
    ts_rpc = (
        {name: reg.timeseries(f"rpc.inflight.{name}") for name in control}
        if control is not None
        else None
    )

    def sample() -> None:
        now = env.now
        ts_rate.record(now, net.aggregate_rate())
        ts_flows.record(now, net.active_flows)
        ts_disk.record(now, max(map(len, disk_queues)))
        if ts_vm is not None:
            ts_vm.record(now, vm_core.commit_queue_length)
        if control is not None:
            for name, ctl in control.items():
                series = ts_rpc.get(name)
                if series is None:
                    series = ts_rpc[name] = reg.timeseries(
                        f"rpc.inflight.{name}"
                    )
                series.record(now, len(ctl.slot._waiting))

    env.every(period, sample, double_after=SAMPLE_DOUBLE_AFTER)


def record_sim_counters(cluster: SimCluster, obs: Optional[Observability]) -> None:
    """Flush the kernel's lifetime event tally into ``sim.kernel.events``.

    Call once per deployment after its simulation has run; together with
    the network's ``sim.net.realloc*`` instruments this makes kernel
    cost visible in the ``--report`` readout and the perf harness.
    """
    if obs is None:
        return
    processed = cluster.env.events_processed
    if processed:
        obs.registry.counter("sim.kernel.events").inc(float(processed))


def deploy_hdfs(
    config: ExperimentConfig, obs: Optional[Observability] = None
) -> SimHDFS:
    """Materialize the paper's HDFS deployment on a fresh simulation."""
    config.validate()
    _collect_previous_deployment()
    cluster = SimCluster(config.cluster, obs=obs)
    if obs is not None and obs.tracer.enabled:
        # HDFS internals are not traced, but experiment-level spans over
        # this deployment should carry simulated timestamps
        obs.tracer.use_clock(lambda: cluster.env.now)
    names = cluster.names()
    roles = HDFSRoles(namenode=names[0], datanodes=tuple(names[1:]))
    hdfs = SimHDFS(cluster, roles, config.hdfs, obs=obs)
    attach_sim_samplers(cluster, obs, engine=hdfs.engine)
    return hdfs

"""Chaos experiment — Figure 7 (supplementary): appends under failures.

The paper's evaluation assumes a failure-free run. This driver measures
what the failure-recovery machinery costs when that assumption breaks:
N clients append 64 MB chunks to one shared file while *k* data
providers crash mid-run and a few appenders die *between* taking their
append ticket and committing it. Survivors must route around the dead
providers (replica failover with timeouts and backoff) and wait for the
version manager's append-ticket lease to abort the dead appenders'
versions before their own can publish.

Notes on the model:

* replication is forced to >= 2 — with the paper's default of 1, every
  page on a crashed provider is simply lost and the figure would
  measure data loss, not recovery;
* the lease is shortened to :data:`CHAOS_LEASE_S` so the frontier stall
  caused by a dead appender is visible but bounded within the run;
* crashing a provider machine does *not* kill the client process
  co-located on it — clients are independent of the storage role, as in
  the paper's deployment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, List, Optional, Sequence

from ..common.config import ExperimentConfig
from ..faults import FaultPlan, schedule_plan, sim_blobseer_injector
from ..obs import Observability
from ..sim.core import Event
from .deploy import deploy_bsfs
from .microbench import (
    CHUNK,
    DataPoint,
    OpTiming,
    _client_nodes,
    _run,
    mean_client_mibps,
    sweep,
    timed,
)

#: when the first provider crashes (sim seconds into the measured run)
CRASH_START = 0.05
#: stagger between successive provider crashes (sim seconds)
CRASH_SPACING = 0.1
#: shortened append-ticket lease for chaos runs (sim seconds): long
#: enough that live appenders never trip it, short enough that a dead
#: appender's hole publishes within the run
CHAOS_LEASE_S = 2.0


def _chaos_config(config: ExperimentConfig) -> ExperimentConfig:
    """*config* hardened for failures (see module notes): only
    ``blobseer.replication`` and ``blobseer.append_lease_s`` change."""
    return replace(
        config,
        blobseer=replace(
            config.blobseer,
            replication=max(2, config.blobseer.replication),
            append_lease_s=CHAOS_LEASE_S,
        ),
    )


def chaos_appends(
    appender_counts: Sequence[int],
    config: ExperimentConfig,
    provider_crashes: int = 2,
    appender_crashes: int = 1,
    obs: Optional[Observability] = None,
) -> List[DataPoint]:
    """Figure 7: N appenders each append one 64 MB chunk to the shared
    file while *provider_crashes* data providers crash mid-run and
    *appender_crashes* clients die holding an uncommitted append ticket.

    Reports the surviving appenders' average throughput — the failure
    tax shows up as the gap to Figure 3 at the same x.
    """

    def run_one(n: int, cfg: ExperimentConfig) -> float:
        if n <= appender_crashes:
            raise ValueError(
                f"{n} appenders with {appender_crashes} crashes leaves "
                "no survivors to measure"
            )
        bsfs = deploy_bsfs(_chaos_config(cfg), obs=obs)
        blobseer = bsfs.blobseer
        env = bsfs.env
        path = "/bench/shared"
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], path)))
        blob_id = bsfs.namespace.get(path).blob_id

        providers = blobseer.roles.data_providers
        k = min(provider_crashes, len(providers) - 2)
        plan = FaultPlan()
        for i in range(k):
            plan.crash(
                "provider", providers[i], at=CRASH_START + CRASH_SPACING * i
            )
        schedule_plan(env, plan, sim_blobseer_injector(blobseer, obs))

        clients = _client_nodes(bsfs, n)
        # the doomed appenders sit mid-pack so live appenders queue
        # both before and behind their wedged versions
        doomed_idx = set(range(n // 2, n // 2 + appender_crashes))
        appends: List[OpTiming] = []

        def survivor(client: str) -> Generator[Event, None, None]:
            op = bsfs.append_proc(client, path, CHUNK)
            yield from timed(env, appends, client, CHUNK, op)

        def doomed(client: str) -> Generator[Event, None, None]:
            # take the append ticket, then die: no pages, no commit.
            # The lease must abort this version or everyone behind
            # it deadlocks.
            yield blobseer.engine.call("vm", "assign_append", blob_id, CHUNK)

        procs = [
            env.process(
                doomed(c) if i in doomed_idx else survivor(c),
                name=f"{'doomed' if i in doomed_idx else 'app'}-{i}",
            )
            for i, c in enumerate(clients)
        ]
        _run(bsfs, procs, obs=obs)
        return mean_client_mibps(appends)

    return sweep(appender_counts, config, run_one)

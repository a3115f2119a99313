"""The chaos acceptance regression: a seeded DES run with 64 concurrent
appenders, two provider crashes, and one appender crash mid-run.

The run must complete (no deadlock), the publish frontier must pass the
dead appender's version via the append-ticket lease abort, and every
byte written by a surviving appender must stay readable — while the dead
appender's reserved range reads as an explicit hole.
"""

from dataclasses import replace

import pytest

from repro.common.config import ExperimentConfig
from repro.common.errors import PageNotFoundError
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.experiments.deploy import deploy_bsfs
from repro.obs import Observability

N_APPENDERS = 64
CHUNK = 8 * MiB


@pytest.fixture(scope="module")
def chaos_run():
    cfg = ExperimentConfig(repetitions=1)
    cfg.cluster = replace(cfg.cluster, nodes=40, seed=1234)
    cfg.blobseer = replace(
        cfg.blobseer,
        metadata_providers=4,
        # page-aligned appends so the dead appender's range is whole
        # pages (a true hole), and 3 replicas so two provider crashes
        # can never take out every copy of a page
        page_size=1 * MiB,
        replication=3,
        append_lease_s=2.0,
    )
    obs = Observability.on()
    dep = deploy_bsfs(cfg, obs=obs)
    sb = dep.blobseer
    env = dep.cluster.env
    blob = sb.create_blob()
    providers = sb.roles.data_providers

    for at, name in ((0.05, providers[0]), (0.15, providers[1])):
        env.call_at(env.now + at, lambda name=name: sb.fail_provider(name))

    doomed_ticket = {}
    doomed_i = N_APPENDERS // 2
    survivors_done = []

    def survivor(client):
        start = env.now
        yield from sb.protocol.update(client, blob, Payload(nbytes=CHUNK))
        survivors_done.append((client, start, env.now))

    def doomed(client):
        # dies between taking the append ticket and committing it
        doomed_ticket["t"] = yield sb.engine.call(
            None, "vm", "assign_append", blob, CHUNK
        )

    clients = [
        dep.client_nodes[i % len(dep.client_nodes)] for i in range(N_APPENDERS)
    ]
    procs = [
        env.process(
            doomed(c) if i == doomed_i else survivor(c), name=f"app-{i}"
        )
        for i, c in enumerate(clients)
    ]

    def main():
        yield env.all_of(procs)

    # raises SimDeadlockError if the frontier wedges behind the dead appender
    env.run(env.process(main(), name="main"))
    return dep, sb, obs, blob, doomed_ticket["t"], survivors_done


class TestChaosRecovery:
    def test_frontier_passes_the_dead_appenders_version(self, chaos_run):
        _dep, sb, obs, blob, ticket, _done = chaos_run
        state = sb.core.blob(blob)
        assert state.published == N_APPENDERS  # every version resolved
        assert sb.core.resolve(blob, ticket.version)[0].aborted
        assert obs.registry.value("vm.aborts") == 1
        assert obs.registry.value("vm.lease_expiries") == 1
        assert obs.registry.value("faults.injected") == 2

    def test_surviving_bytes_stay_readable(self, chaos_run):
        dep, sb, _obs, blob, ticket, _done = chaos_run
        env = dep.cluster.env
        client = dep.client_nodes[0]
        hole_lo, hole_hi = ticket.offset, ticket.offset + ticket.nbytes
        size = sb.core.latest_published(blob).size
        assert size == N_APPENDERS * CHUNK
        env.run(env.process(sb.protocol.read(client, blob, 0, hole_lo)))
        env.run(
            env.process(sb.protocol.read(client, blob, hole_hi, size - hole_hi))
        )

    def test_the_hole_reads_as_an_explicit_error(self, chaos_run):
        dep, sb, _obs, blob, ticket, _done = chaos_run
        env = dep.cluster.env
        client = dep.client_nodes[0]
        with pytest.raises(PageNotFoundError):
            env.run(
                env.process(
                    sb.protocol.read(client, blob, ticket.offset, ticket.nbytes)
                )
            )

    def test_survivors_all_recorded_throughput(self, chaos_run):
        _dep, _sb, _obs, _blob, _ticket, done = chaos_run
        assert len(done) == N_APPENDERS - 1
        # every survivor's append took time, so each has a throughput
        assert all(end > start for _client, start, end in done)

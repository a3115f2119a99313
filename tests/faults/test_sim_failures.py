"""Simulated-runtime failure injection: replica failover, RPC timeouts,
and placement around crashed data providers (fig7's fault model; the
live HDFS failover is tested in tests/hdfs/test_client.py)."""

from dataclasses import replace

import pytest

from repro.common.config import ExperimentConfig
from repro.common.errors import ReplicationError
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.experiments.deploy import deploy_bsfs
from repro.obs import Observability


def _bsfs_dep(nodes=8, replication=3, seed=5):
    cfg = ExperimentConfig(repetitions=1)
    cfg.cluster = replace(cfg.cluster, nodes=nodes, seed=seed)
    cfg.blobseer = replace(
        cfg.blobseer, metadata_providers=2, replication=replication
    )
    obs = Observability.on()
    return deploy_bsfs(cfg, obs=obs), obs


def append(sb, client, blob):
    """One 4 MiB append; the process's value is ``(version, offset,
    group_end)``."""
    return sb.protocol.update(client, blob, Payload(nbytes=4 * MiB))


def read(sb, client, blob):
    """A read of the first 4 MiB; the value is ``(version, data)``."""
    return sb.protocol.read(client, blob, 0, 4 * MiB)


class TestSimBlobSeerFailures:
    def test_read_fails_over_to_surviving_replica(self):
        # 3 data providers, replication 3: every page lives everywhere,
        # so crashing two leaves exactly one readable copy
        dep, obs = _bsfs_dep()
        sb = dep.blobseer
        env = dep.cluster.env
        client = dep.client_nodes[0]
        providers = sb.roles.data_providers
        assert len(providers) == 3
        blob = sb.create_blob()
        env.run(env.process(append(sb, client, blob)))
        sb.fail_provider(providers[0])
        sb.fail_provider(providers[1])
        t0 = env.now
        version, _data = env.run(env.process(read(sb, client, blob)))
        assert version == 1
        # the failover was not free: timed-out RPCs were charged
        assert obs.registry.value("net.rpc_timeouts") >= 1
        assert env.now > t0

    def test_read_fails_when_every_replica_is_down(self):
        dep, _obs = _bsfs_dep()
        sb = dep.blobseer
        env = dep.cluster.env
        client = dep.client_nodes[0]
        blob = sb.create_blob()
        env.run(env.process(append(sb, client, blob)))
        for name in sb.roles.data_providers:
            sb.fail_provider(name)
        with pytest.raises(ReplicationError):
            env.run(env.process(read(sb, client, blob)))

    def test_placement_avoids_crashed_provider(self):
        dep, _obs = _bsfs_dep(replication=2)
        sb = dep.blobseer
        env = dep.cluster.env
        client = dep.client_nodes[0]
        dead = sb.roles.data_providers[0]
        sb.fail_provider(dead)
        blob = sb.create_blob()
        env.run(env.process(append(sb, client, blob)))
        # the crashed provider never comes back, yet reads always succeed:
        # no replica was placed there
        env.run(env.process(read(sb, client, blob)))

    def test_recovered_provider_serves_again(self):
        dep, _obs = _bsfs_dep()
        sb = dep.blobseer
        env = dep.cluster.env
        client = dep.client_nodes[0]
        blob = sb.create_blob()
        env.run(env.process(append(sb, client, blob)))
        for name in sb.roles.data_providers:
            sb.fail_provider(name)
        for name in sb.roles.data_providers:
            sb.recover_provider(name)
        version, _data = env.run(env.process(read(sb, client, blob)))
        assert version == 1

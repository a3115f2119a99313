"""Simulated-runtime failure injection: replica failover, RPC retries,
and placement around crashed storage nodes."""

from dataclasses import replace

import pytest

from repro.common.config import ExperimentConfig
from repro.common.errors import ReplicationError
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.experiments.deploy import deploy_bsfs, deploy_hdfs
from repro.faults import FaultPlan, schedule_plan, sim_blobseer_injector
from repro.obs import Observability


def _bsfs_dep(nodes=8, replication=3, seed=5):
    cfg = ExperimentConfig(repetitions=1)
    cfg.cluster = replace(cfg.cluster, nodes=nodes, seed=seed)
    cfg.blobseer = replace(
        cfg.blobseer, metadata_providers=2, replication=replication
    )
    obs = Observability.on()
    return deploy_bsfs(cfg, obs=obs), obs


def _hdfs_dep(nodes=6, replication=3, seed=5):
    cfg = ExperimentConfig(repetitions=1)
    cfg.cluster = replace(cfg.cluster, nodes=nodes, seed=seed)
    cfg.hdfs = replace(cfg.hdfs, replication=replication)
    obs = Observability.on()
    return deploy_hdfs(cfg, obs=obs), obs


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

    def test_metadata_rpcs_retry_until_recovery(self):
        dep, obs = _bsfs_dep()
        sb = dep.blobseer
        env = dep.cluster.env
        client = dep.client_nodes[0]
        blob = sb.create_blob()
        # crash both metadata providers now, recover them a second later
        # via a scheduled plan — the append's metadata writes must spin on
        # timeouts + backoff until then, and still land
        plan = (
            FaultPlan()
            .crash("metadata", "0", at=0.0, duration=1.0)
            .crash("metadata", "1", at=0.0, duration=1.0)
        )
        schedule_plan(env, plan, sim_blobseer_injector(sb, obs))
        version, _offset, _end = env.run(env.process(append(sb, client, blob)))
        assert version == 1
        assert obs.registry.value("net.rpc_timeouts") >= 1
        assert env.now >= 1.0  # the append could only finish after recovery
        assert obs.registry.value("faults.injected") == 2
        assert obs.registry.value("faults.recovered") == 2


class TestSimHDFSFailures:
    def test_read_fails_over_across_datanodes(self):
        hdfs, obs = _hdfs_dep()
        env = hdfs.env
        client = hdfs.client_nodes[0]
        env.run(env.process(hdfs.write_file_proc(client, "/f", 4 * MiB)))
        # crash two of the chunk's three replicas
        locs = hdfs.namenode.get_block_locations("/f", 0, 4 * MiB)
        for name in locs[0].hosts[:2]:
            hdfs.fail_datanode(name)
        env.run(env.process(hdfs.read_proc(client, "/f", 0, 4 * MiB)))
        assert obs.registry.value("net.rpc_timeouts") >= 1

    def test_read_fails_when_all_replicas_down(self):
        hdfs, _obs = _hdfs_dep()
        env = hdfs.env
        client = hdfs.client_nodes[0]
        env.run(env.process(hdfs.write_file_proc(client, "/f", 4 * MiB)))
        locs = hdfs.namenode.get_block_locations("/f", 0, 4 * MiB)
        for name in locs[0].hosts:
            hdfs.fail_datanode(name)
        with pytest.raises(ReplicationError):
            env.run(env.process(hdfs.read_proc(client, "/f", 0, 4 * MiB)))

    def test_write_places_only_on_alive_datanodes(self):
        hdfs, _obs = _hdfs_dep()
        env = hdfs.env
        client = hdfs.client_nodes[0]
        for name in list(hdfs.roles.datanodes)[:-1]:
            hdfs.fail_datanode(name)
        env.run(env.process(hdfs.write_file_proc(client, "/f", 4 * MiB)))
        locs = hdfs.namenode.get_block_locations("/f", 0, 4 * MiB)
        assert locs[0].hosts == (hdfs.roles.datanodes[-1],)
        env.run(env.process(hdfs.read_proc(client, "/f", 0, 4 * MiB)))

    def test_write_fails_with_no_alive_datanodes(self):
        hdfs, _obs = _hdfs_dep()
        env = hdfs.env
        client = hdfs.client_nodes[0]
        for name in hdfs.roles.datanodes:
            hdfs.fail_datanode(name)
        with pytest.raises(ReplicationError):
            env.run(env.process(hdfs.write_file_proc(client, "/f", 4 * MiB)))

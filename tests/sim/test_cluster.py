"""Unit tests for the simulated cluster builder."""

import pytest

from repro.common.config import ClusterConfig
from repro.sim.cluster import SimCluster


def test_builds_requested_nodes():
    cluster = SimCluster(ClusterConfig(nodes=10))
    assert len(cluster) == 10
    assert cluster.names()[0] == "node-000"
    assert cluster.names()[-1] == "node-009"


def test_node_lookup():
    cluster = SimCluster(ClusterConfig(nodes=5))
    node = cluster.node("node-003")
    assert node.name == "node-003"
    assert node.net is cluster.network.nodes["node-003"]


def test_shared_environment():
    cluster = SimCluster(ClusterConfig(nodes=4))
    assert cluster.network.env is cluster.env
    assert all(n.disk.env is cluster.env for n in cluster.nodes)


def test_config_capacities_applied():
    cfg = ClusterConfig(nodes=4, nic_bandwidth=500.0, disk_write_bandwidth=7.0,
                        disk_read_bandwidth=9.0)
    cluster = SimCluster(cfg)
    node = cluster.node("node-000")
    assert node.net.bandwidth == 500.0
    assert node.disk.write_bandwidth == 7.0
    assert node.disk.read_bandwidth == 9.0


def test_disks_have_independent_rngs():
    cluster = SimCluster(ClusterConfig(nodes=4, page_cache_hit_ratio=0.5))
    a = [cluster.node("node-000").disk.rng.random() for _ in range(5)]
    b = [cluster.node("node-001").disk.rng.random() for _ in range(5)]
    assert a != b


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SimCluster(ClusterConfig(nodes=1))

"""Unit tests for configuration validation."""

from dataclasses import replace

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
    MapReduceConfig,
)


def test_defaults_validate():
    ExperimentConfig().validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"page_size": 0},
        {"replication": 0},
        {"metadata_providers": 0},
        {"append_lease_s": -1},
        {"md_cache_nodes": -1},
    ],
)
def test_blobseer_rejects(kwargs):
    with pytest.raises(ValueError):
        BlobSeerConfig(**kwargs).validate()


def test_fast_profile_moves_the_three_fast_path_knobs_and_nothing_else():
    base = BlobSeerConfig(page_size=4096, replication=2)
    # the defaults are the paper profile
    assert (base.group_commit, base.md_cache_nodes, base.ns_record_cache) == (
        False,
        0,
        False,
    )
    fast = base.fast()
    assert (fast.group_commit, fast.md_cache_nodes, fast.ns_record_cache) == (
        True,
        4096,
        True,
    )
    assert replace(
        fast, group_commit=False, md_cache_nodes=0, ns_record_cache=False
    ) == base
    served = base.fast(group_commit=False)  # what repro-serve runs
    assert replace(served, group_commit=True) == fast
    # a larger cache the caller already chose survives
    assert BlobSeerConfig(md_cache_nodes=9000).fast().md_cache_nodes == 9000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chunk_size": 0},
        {"replication": 0},
    ],
)
def test_hdfs_rejects(kwargs):
    with pytest.raises(ValueError):
        HDFSConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"map_slots": 0},
        {"map_slots": -1},
    ],
)
def test_mapreduce_rejects(kwargs):
    with pytest.raises(ValueError):
        MapReduceConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nodes": 2},
        {"nic_bandwidth": 0},
        {"disk_write_bandwidth": -1},
        {"page_cache_hit_ratio": 1.5},
        {"latency": -0.1},
        {"flow_rate_cap": -1},
    ],
)
def test_cluster_rejects(kwargs):
    with pytest.raises(ValueError):
        ClusterConfig(**kwargs).validate()


def test_experiment_rejects_zero_reps():
    cfg = ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_paper_deployment_shape():
    """The defaults encode the paper's §4.1 setup."""
    cfg = ExperimentConfig()
    assert cfg.cluster.nodes == 270
    assert cfg.blobseer.metadata_providers == 20
    assert cfg.blobseer.page_size == cfg.hdfs.chunk_size == 64 * 2**20
    assert cfg.repetitions == 5

"""Tests for the microbenchmark drivers: how they measure a client's
throughput, and the paper's qualitative claims on a scaled-down
simulated testbed."""

import math

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.common.units import MiB
from repro.experiments.microbench import (
    _mixed_workload,
    appends_under_reads,
    concurrent_appends,
    mean_client_mibps,
    reads_under_appends,
)


def small_config(reps=1):
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=60),
        blobseer=BlobSeerConfig(page_size=16 * MiB, metadata_providers=4),
        hdfs=HDFSConfig(chunk_size=16 * MiB),
        repetitions=reps,
    )


def test_one_op_reads_its_bytes_over_its_duration():
    # 200 MiB moved between t=1 s and t=3 s
    assert mean_client_mibps([("c", 1.0, 3.0, 200 * MiB)]) == pytest.approx(100.0)


def test_per_client_throughput_uses_busy_span():
    log = [
        # c1 does two 100 MiB ops back to back: 200 MiB over 2 s
        ("c1", 0.0, 1.0, 100 * MiB),
        ("c1", 1.0, 2.0, 100 * MiB),
        # c2 is slower: 100 MiB over 4 s
        ("c2", 0.0, 4.0, 100 * MiB),
    ]
    assert mean_client_mibps(log) == pytest.approx((100.0 + 25.0) / 2)
    # the span runs from the first start to the last end, idle gaps included
    assert mean_client_mibps([("c", 0.0, 1.0, MiB), ("c", 3.0, 4.0, MiB)]) == (
        pytest.approx(0.5)
    )


def test_zero_duration_client_does_not_poison_average():
    log = [("fast", 0.0, 0.0, MiB), ("slow", 0.0, 1.0, MiB)]  # fast: no span
    avg = mean_client_mibps(log)
    assert math.isfinite(avg)
    assert avg == pytest.approx(0.5)


def test_a_zero_duration_op_reads_zero():
    # an op every modelled cost of which is zero reads 0.0, not inf
    assert mean_client_mibps([("c", 1.0, 1.0, MiB)]) == 0.0
    assert mean_client_mibps([]) == 0.0


def test_reads_and_appends_are_aggregated_apart():
    # three client machines for two readers and two appenders: the
    # first machine both reads and appends
    cfg = ExperimentConfig(
        cluster=ClusterConfig(nodes=10),
        blobseer=BlobSeerConfig(page_size=16 * MiB, metadata_providers=4),
        repetitions=1,
    )
    reads, appends = _mixed_workload(cfg, 2, 1, 2, 2)
    assert sorted(c for c, *_ in reads) == ["node-007", "node-008"]
    assert sorted(c for c, *_ in appends) == ["node-007"] * 2 + ["node-009"] * 2
    for _client, start, end, nbytes in reads + appends:
        assert end > start and nbytes == 64 * MiB
    assert mean_client_mibps(reads) != mean_client_mibps(appends)


class TestFig3:
    def test_throughput_sustained_under_scaling(self):
        """Figure 3's claim: BSFS maintains good throughput as the number
        of appenders grows — no collapse."""
        points = concurrent_appends([1, 16, 40], small_config())
        ys = [p.mean_mbps for p in points]
        assert all(y > 0 for y in ys)
        # sustained: 40 concurrent appenders keep >= 35% of the
        # single-client throughput (the paper's curve shape)
        assert ys[-1] >= 0.35 * ys[0]

    def test_repetitions_aggregated(self):
        points = concurrent_appends([4], small_config(reps=3))
        assert len(points[0].samples) == 3
        assert points[0].std_mbps >= 0.0

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            concurrent_appends([0], small_config())


class TestFig4:
    def test_reads_sustained_under_appends(self):
        """Figure 4's claim: read throughput is sustained as appenders
        are added (versioning isolates readers)."""
        points = reads_under_appends(
            [0, 20], small_config(), n_readers=16, chunks_per_reader=3,
            chunks_per_appender=4,
        )
        no_appenders, many_appenders = points[0].mean_mbps, points[1].mean_mbps
        assert many_appenders >= 0.6 * no_appenders


class TestFig5:
    def test_appends_sustained_under_reads(self):
        """Figure 5's claim: append throughput is maintained as readers
        are added."""
        points = appends_under_reads(
            [0, 20], small_config(), n_appenders=16, chunks_per_reader=3,
            chunks_per_appender=3,
        )
        alone, with_readers = points[0].mean_mbps, points[1].mean_mbps
        assert with_readers >= 0.6 * alone

"""Tests for the Figure 6 simulated data-join experiment."""

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.common.units import MiB
from repro.experiments.datajoin_exp import (
    DataJoinCalibration,
    _spread,
    run_datajoin_point,
    sweep,
)


def small_config():
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=60),
        blobseer=BlobSeerConfig(metadata_providers=4),
        hdfs=HDFSConfig(),
        repetitions=1,
    )


def small_calibration():
    """Scaled-down job so the test runs in milliseconds of wall time."""
    return DataJoinCalibration(
        chunk_bytes=16 * MiB,
        input_bytes=2 * 80 * MiB,
        output_bytes=800 * MiB,
        map_seconds_per_chunk=50.0,
        reduce_seconds_per_output_mib=0.02,
        task_overhead_seconds=1.0,
    )


class TestSpread:
    def test_even(self):
        assert _spread(100, 4) == [25, 25, 25, 25]

    def test_ragged(self):
        parts = _spread(103, 4)
        assert sum(parts) == 103
        assert max(parts) - min(parts) == 1


class TestScenarios:
    def test_hdfs_produces_one_file_per_reducer(self):
        pt = run_datajoin_point("hdfs", 6, small_config(), small_calibration())
        assert pt.output_files == 6
        assert pt.scenario == "hdfs-separate"
        assert pt.completion_seconds > 0

    def test_bsfs_produces_single_file(self):
        pt = run_datajoin_point("bsfs", 6, small_config(), small_calibration())
        assert pt.output_files == 1
        assert pt.scenario == "bsfs-shared"

    def test_paper_shape_flat_and_equal(self):
        """Figure 6's claims: (a) BSFS completes in approximately the same
        time as HDFS; (b) completion time is roughly constant in the
        number of reducers (compute-dominated)."""
        hdfs_pts, bsfs_pts = sweep([2, 8, 24], small_config(), small_calibration())
        for h, b in zip(hdfs_pts, bsfs_pts):
            assert b.completion_seconds == pytest.approx(
                h.completion_seconds, rel=0.15
            )
        hd_times = [p.completion_seconds for p in hdfs_pts]
        # flat beyond the serial-reduce regime: R=8 vs R=24 within 20%
        assert hd_times[2] == pytest.approx(hd_times[1], rel=0.2)

    def test_calibration_defaults_match_paper_workload(self):
        cal = DataJoinCalibration()
        assert cal.n_map_tasks == 10  # "10 concurrent mappers"
        assert cal.input_bytes == 2 * 320 * MiB
        assert cal.output_bytes == pytest.approx(6.3 * 1024 * MiB, rel=0.01)

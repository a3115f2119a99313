"""Tests for the open-loop (fig8) scale experiment and its harness."""

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.common.units import MiB
from repro.experiments.openloop import (
    OpenLoopPoint,
    _rack_config,
    find_knee,
    open_loop_sweep,
    run_open_loop,
)
from repro.workloads.generators import poisson_arrivals


def small_config(reps=1):
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=24),
        blobseer=BlobSeerConfig(page_size=16 * MiB, metadata_providers=4),
        hdfs=HDFSConfig(chunk_size=16 * MiB),
        repetitions=reps,
    )


class TestRackConfig:
    def test_flat_config_lifted_onto_racks(self):
        cfg = _rack_config(small_config())
        assert cfg.cluster.racks > 0
        assert cfg.cluster.rack_bandwidth > 0
        cfg.validate()

    def test_explicit_racks_preserved(self):
        base = small_config()
        base.cluster.racks = 3
        base.cluster.rack_bandwidth = 123.0
        cfg = _rack_config(base)
        assert cfg.cluster.racks == 3
        assert cfg.cluster.rack_bandwidth == 123.0

    def test_fast_profile_applied_whatever_the_caller_set(self):
        base = small_config()
        base.blobseer.group_commit = True  # pre-set, caches still off
        assert _rack_config(base).blobseer == small_config().blobseer.fast()


class TestRunOpenLoop:
    def test_completes_every_scheduled_op(self):
        cfg = _rack_config(small_config())
        schedule = poisson_arrivals(40.0, 0.5, 50, seed=cfg.cluster.seed)
        point = run_open_loop(cfg, schedule, append_bytes=1 * MiB, n_files=4)
        assert point.ops == len(schedule)
        assert len(point.latencies_s) == point.ops
        assert all(l > 0.0 for l in point.latencies_s)
        assert point.goodput_ops_s > 0.0
        assert point.makespan_s > 0.0
        assert point.p99_latency_s >= point.p50_latency_s > 0.0
        assert point.clients == schedule.distinct_clients

    def test_deterministic_across_runs(self):
        cfg = _rack_config(small_config())
        schedule = poisson_arrivals(30.0, 0.5, 20, seed=cfg.cluster.seed)
        a = run_open_loop(cfg, schedule, n_files=2)
        b = run_open_loop(cfg, schedule, n_files=2)
        assert a.latencies_s == b.latencies_s
        assert a.makespan_s == b.makespan_s

    def test_failed_ops_are_counted_not_timed(self):
        # an append lease shorter than most appends take: those appends
        # are aborted by their lease and raise
        cfg = small_config()
        cfg.blobseer.append_lease_s = 0.003
        (point,) = open_loop_sweep(
            [200.0], cfg, duration=0.2, n_clients=50, n_files=2
        )
        assert 0 < len(point.latencies_s) < point.ops
        assert point.failed == point.ops - len(point.latencies_s)
        assert point.goodput_ops_s == len(point.latencies_s) / point.makespan_s


class TestSweep:
    def test_sweep_shapes_and_validation(self):
        points = open_loop_sweep(
            [20.0, 60.0],
            small_config(),
            duration=0.4,
            n_clients=16,
            n_files=2,
        )
        assert len(points) == 2
        assert points[0].offered_ops_s < points[1].offered_ops_s
        with pytest.raises(ValueError):
            open_loop_sweep(
                [0.0], small_config(), duration=0.4, n_clients=4
            )


class TestFindKnee:
    def _pt(self, offered, goodput):
        return OpenLoopPoint(
            offered_ops_s=offered,
            ops=10,
            clients=10,
            goodput_ops_s=goodput,
            p50_latency_s=0.01,
            p99_latency_s=0.02,
            mean_latency_s=0.01,
            makespan_s=1.0,
        )

    def test_first_underperforming_point(self):
        pts = [self._pt(100, 99), self._pt(200, 170), self._pt(400, 180)]
        assert find_knee(pts) is pts[1]

    def test_none_when_keeping_up(self):
        pts = [self._pt(100, 99), self._pt(200, 195)]
        assert find_knee(pts) is None

    def test_transient_dip_is_not_a_knee(self):
        # one noisy mid-sweep shortfall with full recovery after it —
        # the old first-short-point rule fired here and misreported
        # capacity at 200 ops/s
        pts = [
            self._pt(100, 99),
            self._pt(200, 150),  # dip
            self._pt(400, 390),  # recovered
            self._pt(800, 780),
        ]
        assert find_knee(pts) is None

    def test_dip_then_real_knee_reports_the_knee(self):
        pts = [
            self._pt(100, 99),
            self._pt(200, 150),  # transient dip
            self._pt(400, 390),  # recovered
            self._pt(800, 500),  # saturated from here on
            self._pt(1600, 520),
        ]
        assert find_knee(pts) is pts[3]

    def test_two_consecutive_short_points_qualify_despite_recovery(self):
        # sustained (>= 2 points) shortfall is a knee even if a later
        # point wobbles back over the 90% line
        pts = [
            self._pt(100, 99),
            self._pt(200, 150),
            self._pt(400, 300),
            self._pt(800, 790),
        ]
        assert find_knee(pts) is pts[1]

    def test_lone_final_short_point_is_a_knee(self):
        # saturation first appears at the sweep's top rate; there is no
        # "next point" to confirm with, and the remainder-of-sweep
        # condition is trivially met
        pts = [self._pt(100, 99), self._pt(200, 195), self._pt(400, 250)]
        assert find_knee(pts) is pts[2]


class TestMetadataBench:
    def test_scenarios_run_and_count(self):
        from repro.experiments.mdbench import SCENARIOS, bench_metadata

        for scenario in SCENARIOS:
            res = bench_metadata(scenario, n_versions=64, repeats=1)
            assert res.scenario == scenario
            assert res.ops > 0 and res.ops_per_s > 0.0
            assert res.node_ops > 0


class TestKernelBench:
    def test_scenarios_run_and_count(self):
        from repro.experiments.kernelbench import SCENARIOS, bench_kernel

        for scenario in SCENARIOS:
            res = bench_kernel(scenario, n_events=3_000, repeats=1)
            assert res.scenario == scenario
            # every scenario dispatches at least the requested entries
            assert res.events >= 3_000
            assert res.events_per_s > 0.0

    def test_validation(self):
        from repro.experiments.kernelbench import bench_kernel

        with pytest.raises(ValueError):
            bench_kernel("nope", n_events=10)
        with pytest.raises(ValueError):
            bench_kernel("ring", n_events=0)
        with pytest.raises(ValueError):
            bench_kernel("ring", n_events=10, repeats=0)

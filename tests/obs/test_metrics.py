"""Unit tests for the metrics registry and its instruments."""

import numpy as np
import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


def test_counter_get_or_create_and_inc():
    reg = MetricsRegistry()
    c = reg.counter("vm.tickets")
    c.inc()
    c.inc(2.5)
    assert reg.counter("vm.tickets") is c
    assert reg.counters() == {"vm.tickets": 3.5}
    assert reg.value("vm.tickets") == 3.5
    assert reg.value("absent", default=-1.0) == -1.0


def test_gauge_set():
    reg = MetricsRegistry()
    g = reg.gauge("queue.depth")
    g.set(4.0)
    g.set(2.0)
    assert reg.gauges() == {"queue.depth": 2.0}


def test_type_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_histogram_percentiles_match_numpy():
    h = Histogram("lat")
    values = list(range(1, 101))  # 1..100
    for v in values:
        h.observe(float(v))
    for p in (0, 25, 50, 75, 90, 95, 99, 100):
        assert h.percentile(p) == pytest.approx(np.percentile(values, p))
    # spot-check the interpolated values explicitly
    assert h.percentile(50) == pytest.approx(50.5)
    assert h.percentile(95) == pytest.approx(95.05)


def test_histogram_known_small_distribution():
    h = Histogram("lat")
    for v in (10.0, 20.0, 30.0, 40.0):
        h.observe(v)
    assert h.count == 4
    assert h.mean == pytest.approx(25.0)
    assert h.min == 10.0 and h.max == 40.0
    assert h.percentile(0) == 10.0
    assert h.percentile(100) == 40.0
    assert h.percentile(50) == pytest.approx(25.0)


def test_histogram_observe_after_percentile_resorts():
    h = Histogram("lat")
    h.observe(5.0)
    h.observe(1.0)
    assert h.percentile(100) == 5.0
    h.observe(0.5)  # arrives out of order after a sorted read
    assert h.percentile(0) == 0.5
    assert h.percentile(100) == 5.0


def test_empty_histogram_and_bad_percentile():
    h = Histogram("lat")
    assert h.percentile(50) == 0.0
    assert h.summary()["count"] == 0.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_summary_keys():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    h.observe(1.0)
    s = h.summary()
    assert set(s) == {"count", "mean", "min", "p50", "p95", "p99", "max"}
    snap = reg.snapshot()
    assert snap["histograms"]["lat"]["count"] == 1.0


class TestReservoir:
    def test_below_cap_is_exact(self):
        h = Histogram("lat", max_samples=1000)
        values = list(range(1, 101))
        for v in values:
            h.observe(float(v))
        for p in (0, 50, 95, 100):
            assert h.percentile(p) == pytest.approx(np.percentile(values, p))

    def test_exact_moments_over_capped_stream(self):
        h = Histogram("lat", max_samples=64)
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=1.0, sigma=0.5, size=10_000)
        for v in values:
            h.observe(float(v))
        assert h.count == 10_000
        assert h.mean == pytest.approx(float(np.mean(values)))
        assert h.min == float(np.min(values))
        assert h.max == float(np.max(values))
        assert len(h._samples) == 64

    def test_capped_percentiles_within_tolerance(self):
        """Reservoir percentiles track the full stream within a few
        percent — the bound the perf harness relies on."""
        h = Histogram("lat", max_samples=1000)
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=2.0, sigma=0.7, size=50_000)
        for v in values:
            h.observe(float(v))
        for p in (50, 90, 95, 99):
            exact = float(np.percentile(values, p))
            assert h.percentile(p) == pytest.approx(exact, rel=0.10)

    def test_deterministic_given_name(self):
        def fill(name):
            h = Histogram(name, max_samples=50)
            for v in range(2000):
                h.observe(float(v))
            return sorted(h._samples)

        assert fill("lat") == fill("lat")

    def test_every_stream_position_is_kept_equally_often(self):
        """The skip-ahead reservoir is still a uniform sample: over 600
        seeds (names), each of 200 stream positions survives in a
        20-slot reservoir with probability 1/10 — early, late and the
        positions right after the reservoir fills alike."""
        n, cap, seeds = 200, 20, 600
        kept = np.zeros(n)
        for seed in range(seeds):
            h = Histogram(f"uniformity.{seed}", max_samples=cap)
            for v in range(n):
                h.observe(float(v))
            assert len(h._samples) == cap == len(set(h._samples))
            kept[[int(v) for v in h._samples]] += 1
        expect = seeds * cap / n  # 60 per position, sd ~7.3
        assert kept.sum() == seeds * cap
        assert abs(kept - expect).max() < 5 * (expect * (1 - cap / n)) ** 0.5
        # chi-square over the 200 positions: mean 199, sd ~20
        assert ((kept - expect) ** 2 / (expect * (1 - cap / n))).sum() < 199 + 4 * 20
        for lo in range(0, n, 50):  # no trend along the stream
            assert kept[lo:lo + 50].mean() == pytest.approx(expect, rel=0.05)

    def test_a_full_reservoir_draws_per_replacement_not_per_observe(self):
        import random

        class CountingRandom(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return super().random()

            def randrange(self, *args):
                self.draws += 1
                return super().randrange(*args)

        h = Histogram("lat", max_samples=64)
        h._rng = CountingRandom(1)
        n = 20_000
        for v in range(n):
            h.observe(float(v))
        # ~64 ln(20000/64) = 368 replacements, three draws each
        assert 0 < h._rng.draws < n / 10

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            Histogram("lat", max_samples=0)

    def test_registry_default_cap_applies(self):
        reg = MetricsRegistry(default_hist_max_samples=8)
        h = reg.histogram("lat")
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert len(h._samples) == 8
        # counters/gauges unaffected by the histogram default
        reg.counter("c").inc()
        assert reg.value("c") == 1.0

    def test_unbounded_by_default(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(5000):
            h.observe(float(v))
        assert len(h._samples) == 5000


def test_disabled_registry_hands_out_null_instruments():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("a")
    c.inc(100.0)
    g = reg.gauge("b")
    g.set(5.0)
    h = reg.histogram("c")
    h.observe(1.0)
    assert c.value == 0.0 and g.value == 0.0 and h.count == 0
    # nothing is registered, and handles are shared singletons
    assert reg.counters() == {} and reg.gauges() == {} and reg.histograms() == {}
    assert reg.counter("other") is c


class TestThreadSafety:
    """Instruments are shared by every thread of a threaded deployment;
    lost updates here silently corrupt what ``/metrics`` and the run
    report show."""

    def test_counter_concurrent_increments_all_land(self):
        import threading

        reg = MetricsRegistry()
        counter = reg.counter("t.counter")
        n_threads, per_thread = 8, 5_000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_histogram_concurrent_observes_and_reads(self):
        import threading

        hist = Histogram("t.hist", max_samples=256)
        n_threads, per_thread = 6, 3_000
        errors = []

        def writer(base):
            for i in range(per_thread):
                hist.observe(float(base + i))

        def reader():
            # percentile() re-sorts lazily; racing it against observe()
            # corrupted the reservoir before the lock went in
            try:
                for _ in range(500):
                    p = hist.percentile(99)
                    assert p == p  # never NaN
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(k * per_thread,))
            for k in range(n_threads)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert hist.count == n_threads * per_thread

    def test_empty_histogram_contract(self):
        hist = Histogram("t.empty")
        assert hist.percentile(50) == 0.0
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0
        summary = hist.summary()
        assert all(v == 0.0 for v in summary.values())
        for v in summary.values():
            assert v == v  # never NaN

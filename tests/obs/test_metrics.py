"""Unit tests for the metrics registry and its instruments."""

import numpy as np
import pytest

from repro.obs.metrics import _DRAIN_AT, Histogram, MetricsRegistry


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


def test_gauge_backed_by_a_source_is_computed_when_read():
    reg = MetricsRegistry()
    depth = [3]
    g = reg.gauge("queue.depth", source=lambda: depth[0])
    assert g.value == 3.0 and isinstance(g.value, float)
    depth[0] = 5
    assert reg.gauges() == {"queue.depth": 5.0}
    assert reg.value("queue.depth") == 5.0
    # the last source registered under a name wins, as the last set did
    assert reg.gauge("queue.depth", source=lambda: 9) is g
    assert g.value == 9.0
    # a fetch without a source keeps the one registered
    assert reg.gauge("queue.depth").value == 9.0


def test_a_gauge_source_runs_outside_the_registry_lock():
    """A source may take its component's lock, and that component may
    fetch an instrument while holding it: reading the gauges must not
    hold the registry's lock meanwhile."""
    reg = MetricsRegistry()
    reg.gauge("nested", source=lambda: reg.counter("fetched").value + 1)
    assert reg.gauges() == {"nested": 1.0}
    assert reg.snapshot()["gauges"] == {"nested": 1.0}


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
            assert h.count == 2000  # a readout drains the buffer
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
            assert h.count == n  # a readout drains the buffer
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
        assert h.count == 5000  # a readout drains the buffer
        assert len(h._samples) == 5000


def _pinned_stream(n):
    return [((i * 7919) % 1009) / 7.0 + i * 1e-3 for i in range(1, n + 1)]


#: (values observed, total, mean, min, p50, p95, p99, max) read from
#: :func:`_pinned_stream` at four points of one 3,000-value stream, as
#: the histogram read them when every observe took its lock: buffering
#: must not change a bit of any readout
PINNED_READS = {
    None: [
        (1, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143),
        (700, 50736.20714285716, 72.48029591836737, 0.38685714285714284, 72.57592857142858, 137.3066214285714, 142.9159442857143, 144.37814285714285),
        (1500, 109172.46428571429, 72.78164285714286, 0.38685714285714284, 72.84514285714286, 137.61724999999998, 143.30212285714285, 145.00028571428572),
        (3000, 220539.3571428571, 73.51311904761903, 0.38685714285714284, 73.54307142857144, 138.37250714285713, 144.0915357142857, 146.783),
    ],
    7: [
        (1, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143, 122.2867142857143),
        (700, 50736.20714285716, 72.48029591836737, 0.38685714285714284, 82.73028571428571, 133.2095857142857, 140.54271714285713, 144.37814285714285),
        (1500, 109172.46428571429, 72.78164285714286, 0.38685714285714284, 70.88485714285714, 104.24979999999998, 110.30698857142855, 145.00028571428572),
        (3000, 220539.3571428571, 73.51311904761903, 0.38685714285714284, 52.797714285714285, 110.33315714285712, 116.70525999999998, 146.783),
    ],
}


class TestBuffering:
    """``observe`` appends to a buffer; a full buffer or any readout
    drains it under the lock, in stream order."""

    @pytest.mark.parametrize("cap", [None, 7])
    def test_readouts_equal_the_pinned_values_with_mid_stream_reads(self, cap):
        h = Histogram("pinned", max_samples=cap)
        reads = []
        for i, v in enumerate(_pinned_stream(3000), 1):
            h.observe(v)
            if i in (1, 700, 1500, 3000):
                s = h.summary()
                reads.append((i, h.total, s["mean"], s["min"], s["p50"],
                              s["p95"], s["p99"], s["max"]))
        assert reads == PINNED_READS[cap]

    def test_a_reservoir_read_once_at_the_end_equals_the_pinned_values(self):
        """No mid-stream sort: a drain never reorders the reservoir, so
        the slots replaced are those of the locked histogram."""
        h = Histogram("pinned", max_samples=7)
        for v in _pinned_stream(3000):
            h.observe(v)
        s = h.summary()
        assert (h.total, s["mean"], s["min"], s["p50"], s["p95"], s["p99"],
                s["max"]) == (
            220539.3571428571, 73.51311904761903, 0.38685714285714284,
            91.74785714285714, 135.1526857142857, 140.93133714285713, 146.783,
        )

    @pytest.mark.parametrize("cap", [None, 1, 7, 4096])
    def test_any_buffering_reads_like_one_value_at_a_time(self, cap):
        """Reads after every value (a drain of one) and reads at odd
        points agree to the bit, across the drain size."""
        values = _pinned_stream(3 * _DRAIN_AT + 11)
        stepwise, batched = Histogram("h", cap), Histogram("h", cap)
        for i, v in enumerate(values, 1):
            stepwise.observe(v)
            stepwise.count
            batched.observe(v)
            if i % 977 == 0:
                assert batched.summary() == stepwise.summary()
        assert batched.summary() == stepwise.summary()
        assert batched.total == stepwise.total

    def test_observe_takes_the_lock_only_to_drain_a_full_buffer(self):
        class CountingLock:
            acquired = 0

            def __enter__(self):
                self.acquired += 1

            def __exit__(self, *exc):
                pass

        h = Histogram("h")
        h._lock = lock = CountingLock()
        buf = h._buf
        for v in range(_DRAIN_AT - 1):
            h.observe(float(v))
        assert lock.acquired == 0 and len(buf) == _DRAIN_AT - 1
        h.observe(1.0)
        assert lock.acquired == 1 and not buf
        h.observe(2.0)
        assert h.count == _DRAIN_AT + 1 and lock.acquired == 2
        assert h._buf is buf  # never replaced: observers hold no stale list

    def test_concurrent_observes_and_summaries_keep_count_and_total_exact(self):
        import threading

        hist = Histogram("t.hist", max_samples=64)
        n_threads, per_thread = 8, 4_000
        done = threading.Event()
        seen = []

        def writer(k):
            for i in range(per_thread):
                hist.observe(k * per_thread + i)

        def reader():
            while not done.is_set():
                seen.append(hist.summary()["count"])

        watcher = threading.Thread(target=reader)
        watcher.start()
        writers = [threading.Thread(target=writer, args=(k,))
                   for k in range(n_threads)]
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        done.set()
        watcher.join()
        n = n_threads * per_thread
        assert hist.count == n
        assert hist.total == n * (n - 1) // 2  # integers: exact in any order
        assert (hist.min, hist.max) == (0, n - 1)
        assert seen == sorted(seen)  # a count never goes backwards


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

    def test_counter_read_while_threads_add_is_exact_at_the_end(self):
        """Cells outlive their threads; a reader racing the writers sees
        a total that only grows and ends exact."""
        import threading

        reg = MetricsRegistry()
        counter = reg.counter("t.bytes")
        n_threads, per_thread = 8, 3_000
        done = threading.Event()
        seen = []

        def worker(k):
            for i in range(per_thread):
                counter.inc(k + 1)

        def reader():
            while not done.is_set():
                seen.append(reg.counters()["t.bytes"])

        watcher = threading.Thread(target=reader)
        watcher.start()
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        watcher.join()
        want = per_thread * n_threads * (n_threads + 1) // 2
        assert counter.value == want and isinstance(counter.value, float)
        assert seen == sorted(seen)

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

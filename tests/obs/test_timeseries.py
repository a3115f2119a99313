"""TimeSeries ring buffer and its registry integration."""

import pytest

from repro.obs import MetricsRegistry, TimeSeries
from repro.obs.timeseries import _NULL_TIMESERIES


class TestRingBuffer:
    def test_below_capacity_keeps_everything_in_order(self):
        ts = TimeSeries("x", capacity=8)
        for i in range(5):
            ts.record(float(i), float(10 * i))
        assert ts.summary()["count"] == 5
        assert len(ts) == 5
        assert ts.points() == [(float(i), float(10 * i)) for i in range(5)]
        assert ts.last == 40.0

    def test_wrap_evicts_oldest_and_stays_time_ordered(self):
        ts = TimeSeries("x", capacity=4)
        for i in range(10):
            ts.record(float(i), float(i))
        assert ts.summary()["count"] == 10  # lifetime count is exact
        assert len(ts) == 4  # retention is bounded
        assert ts.points() == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert ts.last == 9.0

    def test_summary_over_retained_samples(self):
        ts = TimeSeries("x", capacity=3)
        for t, v in [(0.0, 100.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]:
            ts.record(t, v)
        s = ts.summary()
        # the 100.0 sample was evicted; count still covers the lifetime
        assert s["count"] == 4.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["last"] == 3.0

    def test_empty_summary(self):
        s = TimeSeries("x").summary()
        assert s == {
            "count": 0.0, "last": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=0)


class TestRegistry:
    def test_get_or_create_and_series_listing(self):
        reg = MetricsRegistry()
        a = reg.timeseries("net.rate")
        assert reg.timeseries("net.rate") is a
        a.record(0.0, 1.0)
        assert list(reg.series()) == ["net.rate"]

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(TypeError):
            reg.timeseries("n")
        reg.timeseries("s")
        with pytest.raises(TypeError):
            reg.gauge("s")

    def test_disabled_registry_hands_out_null_series(self):
        reg = MetricsRegistry(enabled=False)
        ts = reg.timeseries("whatever")
        assert ts is _NULL_TIMESERIES
        ts.record(0.0, 1.0)  # no-op
        assert ts.summary()["count"] == 0 and ts.points() == []

    def test_snapshot_includes_series(self):
        reg = MetricsRegistry()
        reg.timeseries("q").record(0.5, 3.0)
        snap = reg.snapshot()
        assert snap["timeseries"]["q"]["points"] == [(0.5, 3.0)]
        assert snap["timeseries"]["q"]["summary"]["last"] == 3.0

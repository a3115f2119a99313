"""Unit tests for experiment metrics aggregation."""

import pytest

from repro.sim.metrics import Metrics, OpSample


def test_sample_throughput():
    s = OpSample("c", "read", start=1.0, end=3.0, nbytes=200)
    assert s.duration == 2.0
    assert s.throughput == 100.0


def test_record_rejects_reversed_interval():
    m = Metrics()
    with pytest.raises(ValueError):
        m.record("c", "read", start=2.0, end=1.0, nbytes=1)


def test_per_client_throughput_uses_busy_span():
    m = Metrics()
    # client does two 100-byte ops back to back: 200 bytes over 2 s
    m.record("c1", "append", 0.0, 1.0, 100)
    m.record("c1", "append", 1.0, 2.0, 100)
    # another client is slower
    m.record("c2", "append", 0.0, 4.0, 100)
    per = m.per_client_throughput("append")
    assert per["c1"] == pytest.approx(100.0)
    assert per["c2"] == pytest.approx(25.0)
    assert m.average_client_throughput("append") == pytest.approx(62.5)


def test_kinds_are_separate():
    m = Metrics()
    m.record("c", "append", 0, 1, 100)
    m.record("c", "read", 0, 2, 100)
    assert m.average_client_throughput("read") == pytest.approx(50.0)
    assert m.average_client_throughput("append") == pytest.approx(100.0)
    assert m.average_client_throughput("write") == 0.0


def test_makespan():
    m = Metrics()
    m.record("a", "read", 1.0, 2.0, 1)
    m.record("b", "append", 0.5, 4.0, 1)
    assert m.makespan() == pytest.approx(3.5)
    assert m.makespan("read") == pytest.approx(1.0)
    assert m.makespan("write") == 0.0


def test_counters():
    m = Metrics()
    m.bump("versions")
    m.bump("versions", 2)
    assert m.counters["versions"] == 3


def test_zero_duration_sample_throughput_is_finite():
    # regression: instantaneous ops used to report inf B/s, which then
    # poisoned every mean they entered
    s = OpSample("c", "append", start=1.0, end=1.0, nbytes=100)
    assert s.throughput == 0.0


def test_zero_duration_client_does_not_poison_average():
    import math

    m = Metrics()
    m.record("fast", "append", 0.0, 0.0, 100)  # zero busy span
    m.record("slow", "append", 0.0, 1.0, 100)
    per = m.per_client_throughput("append")
    assert per["fast"] == 0.0
    avg = m.average_client_throughput("append")
    assert math.isfinite(avg)
    assert avg == pytest.approx(50.0)

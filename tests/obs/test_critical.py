"""Critical-path attribution: the span-DAG walker partitions busy time."""

import pytest

from repro.obs import attribute
from repro.obs.critical import COMPUTE, CriticalPathReport
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _tracer():
    clock = FakeClock()
    return Tracer(clock=clock), clock


def _span(tracer, clock, name, cat, start, end, parent=None, track="c0"):
    clock.t = start
    sp = tracer.start(name, cat=cat, parent=parent, track=track)
    clock.t = end
    sp.finish()
    return sp


def test_layers_partition_busy_time_with_compute_residual():
    tracer, clock = _tracer()
    clock.t = 0.0
    root = tracer.start("blobseer.append", cat="blobseer", track="c0")
    _span(tracer, clock, "engine.call:vm.assign", "engine.call", 0.0, 1.0, root)
    _span(tracer, clock, "engine.store", "engine.data", 1.0, 3.0, root)
    # [3, 4) is busy but inside no engine op: the compute residual
    _span(tracer, clock, "engine.wait:vm.turn", "engine.wait", 4.0, 6.0, root)
    clock.t = 7.0
    root.finish()

    report = attribute(tracer)
    assert report.busy_s == pytest.approx(7.0)
    assert report.layers["rpc"] == pytest.approx(1.0)
    assert report.layers["network"] == pytest.approx(2.0)
    assert report.layers["turn_wait"] == pytest.approx(2.0)
    assert report.layers[COMPUTE] == pytest.approx(2.0)  # [3,4) + [6,7)
    assert report.attributed_fraction == pytest.approx(1.0)


def test_innermost_span_wins_nested_intervals():
    """A fetch inside a retry sweep charges network, not retry — only
    the sweep's uncovered backoff gaps count as retry."""
    tracer, clock = _tracer()
    clock.t = 0.0
    root = tracer.start("blobseer.read", cat="blobseer", track="c0")
    sweep = _span(
        tracer, clock, "replica.sweep", "engine.retry", 0.0, 10.0, root
    )
    _span(tracer, clock, "engine.fetch", "engine.data", 0.0, 4.0, sweep)
    _span(tracer, clock, "engine.sleep", "engine.retry", 4.0, 5.0, sweep)
    _span(tracer, clock, "engine.fetch", "engine.data", 5.0, 9.0, sweep)
    clock.t = 10.0
    root.finish()

    report = attribute(tracer)
    assert report.layers["network"] == pytest.approx(8.0)
    assert report.layers["retry"] == pytest.approx(2.0)  # backoff + tail
    assert report.layers.get(COMPUTE, 0.0) == pytest.approx(0.0)
    assert report.attributed_fraction == pytest.approx(1.0)


def test_overlapping_sibling_ops_never_double_count():
    """Concurrent ops of one fan-out overlap in time; attribution
    still partitions the interval (never sums to more than busy)."""
    tracer, clock = _tracer()
    clock.t = 0.0
    root = tracer.start("blobseer.read", cat="blobseer", track="c0")
    _span(tracer, clock, "engine.fetch", "engine.data", 0.0, 3.0, root)
    _span(tracer, clock, "engine.fetch", "engine.data", 1.0, 4.0, root)
    clock.t = 4.0
    root.finish()

    report = attribute(tracer)
    assert report.busy_s == pytest.approx(4.0)
    assert report.layers["network"] == pytest.approx(4.0)
    assert report.attributed_fraction == pytest.approx(1.0)


def test_tracks_attributed_independently_and_summed():
    tracer, clock = _tracer()
    for track, dur in (("c0", 2.0), ("c1", 3.0)):
        clock.t = 0.0
        root = tracer.start("op", cat="blobseer", track=track)
        _span(tracer, clock, "engine.store", "engine.data", 0.0, dur, root,
              track=track)
        clock.t = dur
        root.finish()

    report = attribute(tracer)
    assert {t.track for t in report.tracks} == {"c0", "c1"}
    assert report.busy_s == pytest.approx(5.0)
    assert report.layers["network"] == pytest.approx(5.0)


def test_open_spans_closed_at_trace_end_and_instants_skipped():
    tracer, clock = _tracer()
    clock.t = 0.0
    root = tracer.start("op", cat="blobseer", track="c0")  # never finished
    clock.t = 1.0
    tracer.instant("fault.crash", cat="fault", track="c0")
    _span(tracer, clock, "engine.store", "engine.data", 1.0, 2.0, root)
    # trace's max_ts is 2.0: the open root is treated as ending there

    report = attribute(tracer)
    assert report.busy_s == pytest.approx(2.0)
    assert report.layers["network"] == pytest.approx(1.0)
    assert report.layers[COMPUTE] == pytest.approx(1.0)
    assert report.attributed_fraction == pytest.approx(1.0)


def test_empty_trace_reports_nothing():
    tracer, _clock = _tracer()
    report = attribute(tracer)
    assert isinstance(report, CriticalPathReport)
    assert report.busy_s == 0.0
    assert report.tracks == []
    assert report.attributed_fraction == 1.0


def test_to_dict_shape():
    tracer, clock = _tracer()
    clock.t = 0.0
    root = tracer.start("op", cat="blobseer", track="c0")
    _span(tracer, clock, "engine.store", "engine.data", 0.0, 1.0, root)
    clock.t = 1.0
    root.finish()
    doc = attribute(tracer).to_dict()
    assert set(doc) == {"busy_s", "attributed_fraction", "layers", "tracks"}
    assert doc["tracks"][0]["track"] == "c0"
    assert doc["layers"]["network"] == pytest.approx(1.0)

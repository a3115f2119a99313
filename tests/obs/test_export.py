"""Exporter tests: Chrome trace round-trip.

The terminal readout is the run report
(``tests/experiments/test_runreport.py``)."""

import json

from repro.obs import chrome_trace, write_chrome_trace
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _traced_pair():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.start("bsfs.append", cat="bsfs", track="client-0", nbytes=64)
    clock.t = 0.25
    inner = tracer.start("vm.assign", cat="blobseer.vm", parent=outer)
    clock.t = 0.5
    inner.finish()
    clock.t = 1.0
    outer.finish()
    return tracer, outer, inner


def test_chrome_trace_round_trip(tmp_path):
    tracer, outer, inner = _traced_pair()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())

    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 2

    by_name = {e["name"]: e for e in xs}
    app = by_name["bsfs.append"]
    assert app["cat"] == "bsfs"
    assert app["ts"] == 0.0
    assert app["dur"] == 1e6  # 1 s in microseconds
    assert app["pid"] == 1
    assert app["args"]["nbytes"] == 64
    assert by_name["vm.assign"]["args"]["parent_id"] == app["args"]["span_id"]
    # both spans share client-0's track, announced by a thread_name meta
    assert app["tid"] == by_name["vm.assign"]["tid"]
    thread_names = {
        m["args"]["name"] for m in metas if m["name"] == "thread_name"
    }
    assert "client-0" in thread_names


def test_chrome_trace_flags_open_spans():
    """Never-finished spans are emitted closed at the trace's latest
    timestamp with still_open=true, and counted — not silently dropped."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    open_span = tracer.start("open-forever", track="client-0")
    clock.t = 2.0
    tracer.start("closed", track="client-0").finish()

    doc = chrome_trace(tracer)
    xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    assert set(xs) == {"open-forever", "closed"}
    flagged = xs["open-forever"]
    assert flagged["args"]["still_open"] is True
    assert flagged["dur"] == 2e6  # closed at max-ts (t=2.0)
    assert "still_open" not in xs["closed"]["args"]
    assert doc["metadata"]["spans_unfinished"] == 1
    assert open_span.end is None  # the exporter did not mutate the span

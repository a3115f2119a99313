"""Instant events, the fault vocabulary, and counter rows in the export."""

from repro.obs import MetricsRegistry, NULL_SPAN, Observability, chrome_trace
from repro.obs.events import (
    FAULT_CAT,
    FAULT_CRASH,
    FAULT_RECOVER,
    LEASE_EXPIRED,
    fault_crash,
    fault_recover,
    lease_expired,
)
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_instant_is_zero_duration_and_preclosed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    clock.t = 1.5
    sp = tracer.instant("fault.crash", cat=FAULT_CAT, target="p3")
    assert sp.instant is True
    assert sp.start == sp.end == 1.5
    assert sp.args["target"] == "p3"
    assert tracer.open_spans() == []  # already closed


def test_instant_noop_when_disabled():
    tracer = Tracer(enabled=False)
    assert tracer.instant("x") is NULL_SPAN
    assert len(tracer) == 0


def test_fault_helpers_stamp_the_vocabulary():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    obs = Observability(tracer=tracer, registry=MetricsRegistry())
    fault_crash(obs, "provider", "node-3")
    clock.t = 2.0
    fault_recover(obs, "provider", "node-3")
    lease_expired(tracer, blob_id=1, version=4)

    spans = tracer.snapshot()
    assert [s.name for s in spans] == [FAULT_CRASH, FAULT_RECOVER, LEASE_EXPIRED]
    assert all(s.cat == FAULT_CAT and s.track == "faults" for s in spans)
    assert spans[0].args == {"component": "provider", "target": "node-3"}
    assert spans[2].args == {"blob": 1, "version": 4}
    assert obs.registry.value("faults.injected") == 1
    assert obs.registry.value("faults.recovered") == 1
    # all no-ops on a disabled bundle
    off = Observability.off()
    fault_crash(off, "provider", "x")
    lease_expired(off.tracer, 1, 1)
    assert len(off.tracer) == 0


def test_chrome_trace_emits_instants_and_counter_rows():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    sp = tracer.start("op", track="c0")
    clock.t = 1.0
    fault_crash(Observability(tracer=tracer), "provider", "p1")
    clock.t = 2.0
    sp.finish()

    reg = MetricsRegistry()
    reg.counter("vm.commits").inc(7)
    series = reg.timeseries("vm.commit_queue_len")
    series.record(0.5, 3.0)
    series.record(1.5, 1.0)

    doc = chrome_trace(tracer, reg)
    events = doc["traceEvents"]

    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == FAULT_CRASH
    assert instants[0]["ts"] == 1e6
    assert instants[0]["s"] == "t"

    counters = [e for e in events if e["ph"] == "C"]
    by_ts = sorted(
        (e for e in counters if e["name"] == "vm.commit_queue_len"),
        key=lambda e: e["ts"],
    )
    assert [(e["ts"], e["args"]["value"]) for e in by_ts] == [
        (0.5e6, 3.0),
        (1.5e6, 1.0),
    ]
    finals = [e for e in counters if e["name"] == "vm.commits"]
    assert finals and finals[0]["args"]["value"] == 7
    assert finals[0]["ts"] == 2e6  # stamped at the trace's end


def test_chrome_trace_without_registry_has_no_counter_rows():
    tracer = Tracer(clock=FakeClock())
    tracer.start("op", track="c0").finish()
    doc = chrome_trace(tracer)
    assert not [e for e in doc["traceEvents"] if e["ph"] == "C"]

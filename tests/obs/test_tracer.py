"""Unit tests for the span tracer."""

import threading

from repro.obs import NULL_OBS, NULL_SPAN, Observability
from repro.obs.tracer import Tracer


def finished(tracer):
    """The tracer's spans that have both endpoints, in start order."""
    return [s for s in tracer.snapshot() if s.end is not None]


class FakeClock:
    """A hand-advanced clock standing in for ``env.now``."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_explicit_parent_and_timestamps():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.start("append", cat="blobseer", track="client-0")
    clock.t = 1.0
    inner = tracer.start("vm.assign", cat="blobseer.vm", parent=outer)
    clock.t = 3.0
    inner.finish()
    clock.t = 5.0
    outer.finish(version=7)
    assert outer.start == 0.0 and outer.end == 5.0
    assert inner.start == 1.0 and inner.end == 3.0
    assert inner.parent_id == outer.span_id
    assert inner.track == "client-0"  # inherited from the parent
    assert outer.args["version"] == 7


def test_with_spans_nest_via_thread_stack():
    tracer = Tracer()
    with tracer.span("outer", cat="a") as outer:
        with tracer.span("inner", cat="b") as inner:
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None


def test_finished_in_start_order_even_when_closed_out_of_order():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    a = tracer.start("a")
    clock.t = 1.0
    b = tracer.start("b")
    clock.t = 2.0
    b.finish()
    clock.t = 3.0
    a.finish()
    assert [s.name for s in finished(tracer)] == ["a", "b"]


def test_open_spans_excluded_from_finished():
    tracer = Tracer()
    tracer.start("never-closed")
    with tracer.span("closed"):
        pass
    assert [s.name for s in finished(tracer)] == ["closed"]
    assert len(tracer) == 2


def test_finish_is_idempotent():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    sp = tracer.start("op")
    clock.t = 1.0
    sp.finish()
    clock.t = 9.0
    sp.finish()
    assert sp.end == 1.0


def test_exception_annotates_span():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("no")
    except RuntimeError:
        pass
    (sp,) = finished(tracer)
    assert "RuntimeError" in sp.args["error"]


def test_use_clock_rebases_past_recorded_spans():
    tracer = Tracer()
    first = FakeClock()
    tracer.use_clock(first)  # nothing recorded yet: no offset
    sp = tracer.start("dep1-op")
    first.t = 10.0
    sp.finish()
    # second deployment restarts its sim clock at zero
    second = FakeClock()
    tracer.use_clock(second)
    sp2 = tracer.start("dep2-op")
    second.t = 1.0
    sp2.finish()
    assert sp2.start >= sp.end
    assert sp2.end == sp2.start + 1.0


def test_use_clock_rebasing_monotonic_across_three_deployments():
    """Sequential deployments (each restarting its sim clock at zero)
    lay out one after another with no overlap in the shared tracer."""
    tracer = Tracer()
    boundaries = []
    for _dep in range(3):
        clock = FakeClock()
        tracer.use_clock(clock)
        sp = tracer.start("dep-op")
        clock.t = 5.0
        sp.finish()
        boundaries.append((sp.start, sp.end))
    for (s0, e0), (s1, e1) in zip(boundaries, boundaries[1:]):
        assert s1 >= e0  # no overlap between deployments
        assert e1 - s1 == 5.0  # durations preserved
    starts = [s for s, _e in boundaries]
    assert starts == sorted(starts)
    assert tracer.max_ts == boundaries[-1][1]


def test_unbalanced_exit_leaves_stack_consistent():
    """Exiting an outer span before its inner one (an error-path hazard
    in threaded code) must not corrupt the thread's context stack."""
    tracer = Tracer(clock=FakeClock())
    outer = tracer.span("outer")
    outer.__enter__()
    inner = tracer.span("inner")
    inner.__enter__()
    # outer exits first: it is removed from the middle of the stack
    outer.__exit__(None, None, None)
    assert tracer.current() is inner
    inner.__exit__(None, None, None)
    assert tracer.current() is None
    # both closed; a new span parents under nothing
    assert tracer.open_spans() == []
    assert tracer.start("after").parent_id is None


def test_null_span_args_are_immutable():
    """The shared NULL_SPAN must never accumulate state: a direct write
    through its args mapping fails loudly instead of leaking globally."""
    import pytest

    assert dict(NULL_SPAN.args) == {}
    with pytest.raises(TypeError):
        NULL_SPAN.args["leak"] = 1  # type: ignore[index]
    # the supported calls stay harmless no-ops
    assert NULL_SPAN.set(a=1) is NULL_SPAN
    assert NULL_SPAN.finish(b=2) is NULL_SPAN
    assert dict(NULL_SPAN.args) == {}


def test_threads_have_independent_context_stacks():
    tracer = Tracer()
    seen = {}

    def worker():
        assert tracer.current() is None
        with tracer.span("in-thread", track="t2") as sp:
            seen["parent_id"] = sp.parent_id

    with tracer.span("main-span"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["parent_id"] is None  # no cross-thread parenting


def test_disabled_tracer_is_a_noop():
    tracer = Tracer(enabled=False)
    sp = tracer.start("anything", cat="x", nbytes=1)
    assert sp is NULL_SPAN
    with tracer.span("ctx") as sp2:
        sp2.set(a=1)
    assert sp2 is NULL_SPAN
    assert len(tracer) == 0
    assert finished(tracer) == []


def test_null_obs_shared_and_disabled():
    assert not NULL_OBS.enabled
    assert NULL_OBS.tracer.start("x") is NULL_SPAN
    on = Observability.on()
    assert on.enabled
    assert on.tracer.start("x") is not NULL_SPAN


def test_disabled_overhead_small():
    """Disabled tracing must be cheap enough to leave compiled in."""
    import timeit

    tracer = Tracer(enabled=False)
    per_call = timeit.timeit(lambda: tracer.start("op"), number=10_000) / 10_000
    # generous bound (microseconds): catches accidental span allocation,
    # not scheduler jitter
    assert per_call < 50e-6

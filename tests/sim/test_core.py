"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimDeadlockError
from repro.sim.core import Environment


@pytest.fixture()
def env():
    return Environment()


class TestTimeouts:
    def test_time_advances(self, env):
        def proc():
            yield env.timeout(1.5)
            return env.now

        assert env.run(env.process(proc())) == 1.5

    def test_zero_delay(self, env):
        def proc():
            yield env.timeout(0)
            return "done"

        assert env.run(env.process(proc())) == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value(self, env):
        def proc():
            got = yield env.timeout(1, value="payload")
            return got

        assert env.run(env.process(proc())) == "payload"

    def test_same_instant_fifo(self, env):
        """Events at the same time fire in scheduling order."""
        order = []

        def proc(tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_return_value(self, env):
        def child():
            yield env.timeout(2)
            return 99

        def parent():
            value = yield env.process(child())
            return value + 1

        assert env.run(env.process(parent())) == 100

    def test_waiting_on_finished_process(self, env):
        def child():
            yield env.timeout(1)
            return "early"

        ch = env.process(child())

        def parent():
            yield env.timeout(5)
            value = yield ch  # already processed
            return value

        assert env.run(env.process(parent())) == "early"

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("boom")

        def parent():
            with pytest.raises(ValueError, match="boom"):
                yield env.process(child())
            return "caught"

        assert env.run(env.process(parent())) == "caught"

    def test_unwaited_failure_raises_at_run(self, env):
        def child():
            yield env.timeout(1)
            raise RuntimeError("unobserved")

        env.process(child())
        with pytest.raises(RuntimeError, match="unobserved"):
            env.run()

    def test_run_until_failed_process_raises(self, env):
        def child():
            yield env.timeout(1)
            raise KeyError("k")

        with pytest.raises(KeyError):
            env.run(env.process(child()))

    def test_yield_non_event_is_error(self, env):
        def bad():
            yield 42

        with pytest.raises(TypeError):
            env.run(env.process(bad()))


class TestConditions:
    def test_all_of_collects_values(self, env):
        def child(d, v):
            yield env.timeout(d)
            return v

        def parent():
            values = yield env.all_of(
                [env.process(child(2, "a")), env.process(child(1, "b"))]
            )
            return (env.now, sorted(values))

        assert env.run(env.process(parent())) == (2.0, ["a", "b"])

    def test_all_of_empty(self, env):
        def parent():
            values = yield env.all_of([])
            return values

        assert env.run(env.process(parent())) == []

    def test_all_of_propagates_failure(self, env):
        def ok():
            yield env.timeout(10)

        def bad():
            yield env.timeout(1)
            raise ValueError("member failed")

        def parent():
            yield env.all_of([env.process(ok()), env.process(bad())])

        with pytest.raises(ValueError, match="member failed"):
            env.run(env.process(parent()))


class TestEvents:
    def test_manual_event(self, env):
        ev = env.event()

        def trigger():
            yield env.timeout(3)
            ev.succeed("signal")

        def waiter():
            value = yield ev
            return (env.now, value)

        env.process(trigger())
        assert env.run(env.process(waiter())) == (3.0, "signal")

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")


class TestRunModes:
    def test_run_until_time(self, env):
        ticks = []

        def clock():
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(clock())
        env.run(until=3.5)
        assert ticks == [1, 2, 3]
        assert env.now == 3.5

    def test_run_drains_queue(self, env):
        def proc():
            yield env.timeout(7)

        env.process(proc())
        env.run()
        assert env.now == 7

    def test_deadlock_detected(self, env):
        ev = env.event()  # never triggered

        def waiter():
            yield ev

        with pytest.raises(SimDeadlockError):
            env.run(env.process(waiter()))

    def test_run_until_past_is_error(self, env):
        def proc():
            yield env.timeout(10)

        env.process(proc())
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=1)


class TestEvery:
    def test_ticks_at_period_and_stops_with_the_workload(self, env):
        ticks = []
        env.every(1.0, lambda: ticks.append(env.now), double_after=10)

        def proc():
            yield env.timeout(3.5)

        env.run(env.process(proc()))
        # fires at 1, 2, 3; the tick at 3 sees the queue still alive
        # (the 3.5 timeout), but the one scheduled for 4 never fires
        # because run() ends when the driving process does
        assert ticks == [1.0, 2.0, 3.0]

    def test_does_not_keep_an_idle_queue_alive(self, env):
        ticks = []
        env.every(1.0, lambda: ticks.append(env.now), double_after=10)

        def proc():
            yield env.timeout(2.0)

        env.run()  # drain mode: no processes at all after this one
        env.process(proc())
        env.run()
        # the tick that fires with nothing else queued stops ticking
        assert ticks and ticks[-1] <= 3.0

    def test_double_after_decimates_long_runs(self, env):
        ticks = []
        env.every(1.0, lambda: ticks.append(env.now), double_after=2)

        def proc():
            yield env.timeout(20.0)

        env.run(env.process(proc()))
        # periods: 1,1 then 2,2 then 4,4 ... -> ticks at 1,2,4,6,10,14
        assert ticks == [1.0, 2.0, 4.0, 6.0, 10.0, 14.0]

    def test_validation(self, env):
        with pytest.raises(ValueError):
            env.every(0.0, lambda: None, double_after=1)
        with pytest.raises(ValueError):
            env.every(1.0, lambda: None, double_after=0)


class TestSchedulingValidation:
    """call_in/call_at must reject entries that would land behind
    ``now`` (they would corrupt the calendar-queue order)."""

    def test_call_in_negative_delay_rejected(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.call_in(-0.5, lambda: None)

    def test_call_in_nan_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_in(float("nan"), lambda: None)

    def test_call_at_past_deadline_rejected(self, env):
        def proc():
            yield env.timeout(2.0)
            env.call_at(1.0, lambda: None)

        with pytest.raises(ValueError, match="in the past"):
            env.run(env.process(proc()))

    def test_call_at_nan_deadline_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_at(float("nan"), lambda: None)

    def test_timeout_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_nan_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(float("nan"))

    def test_run_until_nan_rejected(self, env):
        env.call_in(1.0, lambda: None)
        with pytest.raises(ValueError, match="in the past"):
            env.run(until=float("nan"))
        assert env.now == 0.0
        env.run(until=3.0)  # the rejected run left the queue intact
        assert env.now == 3.0 and env.events_processed == 1

    def test_call_in_zero_fires_this_instant(self, env):
        fired = []
        env.call_in(0.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [0.0]

    def test_call_at_now_fires_this_instant(self, env):
        fired = []

        def proc():
            yield env.timeout(1.0)
            env.call_at(env.now, lambda: fired.append(env.now))
            yield env.timeout(1.0)

        env.run(env.process(proc()))
        assert fired == [1.0]

    def test_call_in_subresolution_delay_fires_this_instant(self, env):
        # a delay too small for the float clock to resolve must fire at
        # the current instant (ring), never land in the heap at `now`
        fired = []

        def proc():
            yield env.timeout(1e9)
            env.call_in(1e-12, lambda: fired.append(env.now))
            yield env.timeout(1.0)

        env.run(env.process(proc()))
        assert fired == [1e9]


# -- one dispatch loop, whatever the run ends on -------------------------------

#: (kind, delay in quarter seconds, follow-up depth)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["call", "timeout", "process", "flush"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=20,
)


def build(env, ops, log):
    """Schedule *ops* on *env*; every dispatch appends ``(tag, now)``."""
    armed = []

    def fire(tag, depth):
        def run():
            log.append((tag, env.now))
            if depth:
                env.call_in(0.25 * (depth % 2), fire(tag + "+", depth - 1))
                armed.append(tag)
                env.request_flush()

        return run

    def hook():
        # end of the instant: log, then queue same-instant work
        log.append(("flush", env.now, tuple(armed)))
        for tag in armed:
            env.call_in(0.0, fire(tag + "!", 0))
        armed.clear()

    def proc(tag, delay, hops):
        for hop in range(hops + 1):
            yield env.timeout(delay)
            log.append((f"{tag}.{hop}", env.now))

    env.add_flush_hook(hook)
    for i, (kind, quarters, depth) in enumerate(ops):
        delay, tag = 0.25 * quarters, f"{kind}{i}"
        if kind == "call":
            env.call_in(delay, fire(tag, depth))
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(lambda _ev, t=tag: log.append((t, env.now)))
        elif kind == "process":
            env.process(proc(tag, delay, depth))
        else:
            env.call_in(delay, lambda t=tag: (armed.append(t), env.request_flush()))


def outcome(ops, *horizons):
    """Dispatch log, final clock and entry count of *ops* run as
    ``run(until=h)`` per horizon, or as one ``run()`` without any."""
    env, log = Environment(), []
    build(env, ops, log)
    for h in horizons:
        env.run(until=h)
    if not horizons:
        env.run()
    return log, env.now, env.events_processed


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(ops=OPS, cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_drain_slices_and_horizon_runs_dispatch_alike(ops, cuts):
    drained = outcome(ops)
    last = drained[1]  # the drained run ends at its last event
    assert outcome(ops, last) == drained
    assert outcome(ops, *sorted(last * c for c in cuts), last) == drained

"""Unit tests for the event-chained RPC fast paths.

``Resource.round_trip`` / ``batch_round_trips`` bypass the
Process/Timeout machinery; these tests pin their semantics to the
generator-based equivalent: same timing, same FIFO admission (also when
mixed with generator-based ``request()`` users), same failure point.
``TestMatchesGeneratorReference`` checks that on random schedules.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import Environment, Event
from repro.sim.resources import Resource, batch_round_trips


@pytest.fixture()
def env():
    return Environment()


class TestRoundTrip:
    def test_uncontended_timing(self, env):
        res = Resource(env)

        def proc():
            value = yield res.round_trip(0.5, 2.0, fn=lambda: "ok")
            return (env.now, value)

        # latency + service + latency
        assert env.run(env.process(proc())) == (3.0, "ok")
        assert res.holder is None

    def test_zero_latency(self, env):
        res = Resource(env)

        def proc():
            yield res.round_trip(0.0, 1.5)
            return env.now

        assert env.run(env.process(proc())) == 1.5

    def test_contended_serializes_fifo(self, env):
        res = Resource(env)
        ends = []

        def proc(tag):
            yield res.round_trip(0.0, 1.0)
            ends.append((tag, env.now))

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert ends == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_mixes_fifo_with_generator_requests(self, env):
        res = Resource(env)
        order = []

        def generator_user():
            req = yield res.request()
            order.append("gen-granted")
            yield env.timeout(1.0)
            res.release(req)

        def rpc_user():
            yield res.round_trip(0.0, 1.0)
            order.append("rpc-done")

        def late_generator_user():
            yield env.timeout(0.5)  # arrives while the rpc waits
            req = yield res.request()
            order.append("late-gen-granted")
            res.release(req)

        env.process(generator_user())
        env.process(rpc_user())
        env.process(late_generator_user())
        env.run()
        # the rpc is admitted first (FIFO), and its release at end of
        # service grants the late requester before the reply leg lands
        assert order == ["gen-granted", "late-gen-granted", "rpc-done"]

    def test_notify_false_returns_none_but_serializes(self, env):
        res = Resource(env)
        assert res.round_trip(0.0, 2.0, notify=False) is None

        def proc():
            # queued behind the fire-and-forget call's service
            yield res.round_trip(0.0, 1.0)
            return env.now

        assert env.run(env.process(proc())) == 3.0
        assert res.holder is None

    def test_fn_failure_fails_event_and_releases(self, env):
        res = Resource(env)

        def bad():
            raise RuntimeError("service exploded")

        def proc():
            with pytest.raises(RuntimeError, match="service exploded"):
                yield res.round_trip(0.25, 1.0, fn=bad)
            # the unit must be free again
            yield res.round_trip(0.0, 1.0)
            return env.now

        # failure surfaces at the service point (1.25), then 1s more
        assert env.run(env.process(proc())) == 2.25


class TestBatchRoundTrips:
    def test_fires_at_last_reply(self, env):
        a = Resource(env)
        b = Resource(env)
        from repro.sim.core import Event

        done = Event(env)
        batch_round_trips([a, b], latency=0.5, service=2.0, done=done)

        def proc():
            yield done
            return env.now

        assert env.run(env.process(proc())) == 3.0  # 0.5 + 2.0 + 0.5

    def test_duplicate_resource_serializes(self, env):
        res = Resource(env)
        from repro.sim.core import Event

        done = Event(env)
        # both RPCs hit the same single-slot server: back-to-back service
        batch_round_trips([res, res], latency=0.5, service=1.0, done=done)

        def proc():
            yield done
            return env.now

        assert env.run(env.process(proc())) == 3.0  # 0.5 + 1 + 1 + 0.5
        assert res.holder is None

    def test_matches_individual_round_trips(self, env):
        """The batch is timing-equivalent to k independent round trips."""
        servers = [Resource(env) for _ in range(3)]

        def individual():
            evs = [s.round_trip(0.3, 1.1) for s in servers]
            yield env.all_of(evs)
            return env.now

        t_individual = env.run(env.process(individual()))

        env2 = Environment()
        servers2 = [Resource(env2) for _ in range(3)]
        from repro.sim.core import Event

        done = Event(env2)
        batch_round_trips(servers2, latency=0.3, service=1.1, done=done)

        def batched():
            yield done
            return env2.now

        assert env2.run(env2.process(batched())) == t_individual


class TestCallInCallAt:
    def test_call_in_fires_after_delay(self, env):
        fired = []
        env.call_in(2.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_call_at_fires_at_instant(self, env):
        fired = []

        def proc():
            yield env.timeout(1.0)
            env.call_at(4.0, lambda: fired.append(env.now))

        env.process(proc())
        env.run()
        assert fired == [4.0]

    def test_same_instant_callbacks_fifo(self, env):
        order = []
        env.call_in(1.0, lambda: order.append("first"))
        env.call_in(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "second"]


# -- the record against a generator-built reference ---------------------------

#: instants on a coarse grid, so arrivals, grants and service ends tie
#: often, mixed with arbitrary ones
_instants = st.one_of(
    st.integers(0, 8).map(lambda k: k * 0.25),
    st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
)


@dataclass(frozen=True)
class _Rpc:
    at: float
    res: int
    latency: float
    service: float
    notify: bool
    fails: bool


@dataclass(frozen=True)
class _User:
    """A generator-based ``request()`` holder."""

    at: float
    res: int
    hold: float


@dataclass(frozen=True)
class _Batch:
    at: float
    res: Tuple[int, ...]
    latency: float
    service: float


_ops = st.lists(
    st.one_of(
        st.builds(
            _Rpc, _instants, st.integers(0, 2), _instants, _instants,
            st.booleans(), st.booleans(),
        ),
        st.builds(_User, _instants, st.integers(0, 2), _instants),
        st.builds(
            _Batch,
            _instants,
            st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
            _instants,
            _instants,
        ),
    ),
    min_size=1,
    max_size=12,
)


def _simulate(ops, reference: bool):
    """Run *ops*, each from its own process woken at its instant, on the
    record (``reference=False``) or on request/timeout/release.

    Returns each op's outcome ``(status, value, instant)``, each
    resource's log of ``(op, instant)`` in the order its slot served
    them (a call's service end, a user's grant), and the resources."""
    env = Environment()
    resources = [Resource(env) for _ in range(3)]
    log = [[] for _ in resources]
    out = {}

    def served(i, r, fails):
        log[r].append((i, env.now))
        if fails:
            raise ValueError(f"op {i} failed")
        return ("value", i)

    def rpc(i, op):
        # an unwaited-for failure would (rightly) raise out of the
        # kernel: only a notified call fails
        fails = op.fails and op.notify
        yield env.timeout(op.at)
        res = resources[op.res]
        if not reference:
            ev = res.round_trip(
                op.latency, op.service, served, (i, op.res, fails),
                notify=op.notify,
            )
            if ev is None:
                return
            try:
                out[i] = ("ok", (yield ev), env.now)
            except ValueError as exc:
                out[i] = ("failed", str(exc), env.now)
            return
        if op.latency:
            yield env.timeout(op.latency)
        req = yield res.request()
        yield env.timeout(op.service)
        try:
            value = served(i, op.res, fails)
        except ValueError as exc:
            res.release(req)
            out[i] = ("failed", str(exc), env.now)
            return
        res.release(req)
        if not op.notify:
            return
        if op.latency:
            yield env.timeout(op.latency)
        out[i] = ("ok", value, env.now)

    def user(i, op):
        yield env.timeout(op.at)
        res = resources[op.res]
        req = yield res.request()
        log[op.res].append((i, env.now))
        yield env.timeout(op.hold)
        res.release(req)
        out[i] = ("ok", None, env.now)

    def leg(res, req, service):
        yield req
        yield env.timeout(service)
        res.release(req)

    def batch(i, op):
        yield env.timeout(op.at)
        members = [resources[r] for r in op.res]
        if not reference:
            done = Event(env)
            batch_round_trips(members, op.latency, op.service, done)
            yield done
        else:
            if op.latency:
                yield env.timeout(op.latency)
            # every member arrives at once, in list order
            reqs = [res.request() for res in members]
            yield env.all_of(
                [
                    env.process(leg(res, req, op.service))
                    for res, req in zip(members, reqs)
                ]
            )
            if op.latency:
                yield env.timeout(op.latency)
        out[i] = ("ok", None, env.now)

    run = {_Rpc: rpc, _User: user, _Batch: batch}
    for i, op in enumerate(ops):
        env.process(run[type(op)](i, op))
    env.run()
    return out, log, resources


class TestMatchesGeneratorReference:
    @settings(max_examples=300, deadline=None)
    @given(_ops)
    def test_same_instants_values_failures_and_grant_order(self, ops):
        got, got_log, got_res = _simulate(ops, reference=False)
        want, want_log, _ = _simulate(ops, reference=True)
        assert got == want
        assert got_log == want_log
        for res in got_res:
            assert res.holder is None and not res._waiting

"""Unit tests for the event-chained RPC fast paths.

``Resource.round_trip`` / ``batch_round_trips`` bypass the
Process/Timeout machinery; these tests pin their semantics to the
generator-based equivalent: same timing, same FIFO admission (also when
mixed with generator-based ``request()`` users), same failure point.
"""

import pytest

from repro.sim.core import Environment
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
        assert not res.busy

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
        assert not res.busy

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
        assert not res.busy

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

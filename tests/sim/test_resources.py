"""Unit tests for simulation resources."""

import pytest

from repro.sim.core import Environment
from repro.sim.resources import Resource


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_serializes_beyond_capacity(self, env):
        res = Resource(env)
        spans = {}

        def worker(name):
            req = yield res.request()
            start = env.now
            yield env.timeout(10)
            res.release(req)
            spans[name] = (start, env.now)

        for name in "abc":
            env.process(worker(name))
        env.run()
        # 3 jobs, one at a time, 10s each -> back to back
        assert [spans[name] for name in "abc"] == [(0, 10), (10, 20), (20, 30)]
        assert res.holder is None

    def test_fifo_admission(self, env):
        res = Resource(env)
        order = []

        def worker(name, hold):
            req = yield res.request()
            order.append(name)
            yield env.timeout(hold)
            res.release(req)

        for name in "abc":
            env.process(worker(name, 1))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_foreign_request_rejected(self, env):
        res1 = Resource(env)
        res2 = Resource(env)

        def proc():
            req = yield res1.request()
            with pytest.raises(ValueError):
                res2.release(req)
            res1.release(req)

        env.run(env.process(proc()))

    def test_double_release_admits_no_second_holder(self, env):
        res = Resource(env)
        a, b, c = res.request(), res.request(), res.request()
        res.release(a)
        assert res.holder is b
        with pytest.raises(ValueError, match="does not hold"):
            res.release(a)
        # c is still queued: mutual exclusion held
        assert res.holder is b
        env.run()
        assert b.processed and not c.triggered
        res.release(b)
        assert res.holder is c
        res.release(c)
        assert res.holder is None

    def test_release_of_queued_request_rejected(self, env):
        res = Resource(env)
        a, b = res.request(), res.request()
        with pytest.raises(ValueError, match="does not hold"):
            res.release(b)
        # b was not granted by its own release
        assert res.holder is a and not b.triggered
        res.release(a)
        assert res.holder is b

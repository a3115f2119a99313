"""Unit tests for simulation resources."""

import pytest

from repro.sim.core import Environment
from repro.sim.resources import Resource


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_serializes_beyond_capacity(self, env):
        res = Resource(env, capacity=2)
        spans = {}

        def worker(name):
            req = yield res.request()
            start = env.now
            yield env.timeout(10)
            res.release(req)
            spans[name] = (start, env.now)

        for name in "abcd":
            env.process(worker(name))
        env.run()
        # 4 jobs, 2 at a time, 10s each -> two waves
        assert spans["a"][0] == 0 and spans["b"][0] == 0
        assert spans["c"][0] == 10 and spans["d"][0] == 10

    def test_fifo_admission(self, env):
        res = Resource(env, capacity=1)
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
        res1 = Resource(env, capacity=1)
        res2 = Resource(env, capacity=1)

        def proc():
            req = yield res1.request()
            with pytest.raises(ValueError):
                res2.release(req)
            res1.release(req)

        env.run(env.process(proc()))

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

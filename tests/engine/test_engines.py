"""Unit tests for the engine layer: payloads, the threaded trampoline,
the shared replica policy, and both engines' fault primitives."""

import pytest

from repro.blobseer.backends import InMemoryPageStore
from repro.blobseer.pages import PageId
from repro.blobseer.provider import Provider
from repro.common.config import ClusterConfig
from repro.common.errors import ProviderUnavailableError, RpcTimeoutError
from repro.common.rng import stream
from repro.engine.base import Payload
from repro.engine.des import DesEngine
from repro.engine.replica import ReplicaSelector
from repro.engine.threaded import ThreadedEngine
from repro.obs import Observability
from repro.sim.cluster import SimCluster


class TestPayload:
    def test_requires_data_or_size(self):
        with pytest.raises(ValueError):
            Payload()

    def test_byte_payload(self):
        p = Payload(b"hello")
        assert len(p) == 5
        assert p.slice(1, 3).data == b"el"

    def test_size_only_payload(self):
        p = Payload(nbytes=100)
        assert len(p) == 100
        assert p.data is None
        assert len(p.slice(10, 60)) == 50


class _Adder:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise KeyError("boom")


class TestTrampoline:
    def test_returns_stopiteration_value(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            three = yield eng.call(None, "svc", "add", 1, 2)
            yield eng.sleep(None, 0)
            return three * 10

        assert eng.run(gen()) == 30

    def test_throws_into_generator(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            try:
                yield eng.call(None, "svc", "boom")
            except KeyError:
                return "recovered"
            return "unreached"

        assert eng.run(gen()) == "recovered"

    def test_uncaught_exception_propagates(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            yield eng.call(None, "svc", "boom")

        with pytest.raises(KeyError):
            eng.run(gen())


class TestReplicaSelector:
    def test_rotation_is_seeded_and_deterministic(self):
        eps = ("a", "b", "c")
        s1 = ReplicaSelector(stream(3, "x"))
        s2 = ReplicaSelector(stream(3, "x"))
        orders = [s1.order(eps) for _ in range(6)]
        assert orders == [s2.order(eps) for _ in range(6)]
        # the phase steps once per order(): consecutive calls spread
        # the starting replica over the whole set
        assert {o[0] for o in orders} == {"a", "b", "c"}
        for o in orders:
            assert sorted(o) == ["a", "b", "c"]

    def test_dead_endpoints_sort_last(self):
        sel = ReplicaSelector(stream(0, "y"))
        sel.dead.add("b")
        for _ in range(4):
            order = sel.order(("a", "b", "c"))
            assert order[-1] == "b"


class TestThreadedFaults:
    def test_unavailable_maps_to_rpc_timeout_and_counts(self):
        obs = Observability.on()
        eng = ThreadedEngine(obs=obs)
        provider = Provider("p", InMemoryPageStore())
        provider.fail()
        eng.bind_providers({"p": provider})
        page = PageId(1, "c", 0)

        def gen():
            try:
                yield eng.store(None, "c", "p", page, Payload(b"x"))
            except RpcTimeoutError:
                pass
            yield eng.fetch(None, "c", "p", page, 0, 1)

        with pytest.raises(RpcTimeoutError) as failed:
            eng.run(gen())
        assert isinstance(failed.value.__cause__, ProviderUnavailableError)
        assert obs.registry.counters()["net.rpc_timeouts"] == 2.0


class TestDesFaults:
    def test_store_to_down_endpoint_charges_timeout(self):
        cluster = SimCluster(ClusterConfig(nodes=4, seed=1))
        obs = Observability.on()
        eng = DesEngine(cluster, obs=obs)
        names = cluster.names()
        eng.fail_endpoint(names[1])
        assert names[1] in eng._down
        failed_at = {}

        def proc():
            try:
                yield eng.store(
                    None, names[0], names[1], "page", Payload(nbytes=100)
                )
            except RpcTimeoutError:
                failed_at["t"] = eng.now()

        env = cluster.env
        env.run(env.process(proc()))
        # the client pays the full RPC timeout in simulated time
        assert failed_at["t"] == pytest.approx(eng.retry.rpc_timeout)
        assert obs.registry.counters()["net.rpc_timeouts"] == 1.0

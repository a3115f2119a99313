"""Coalesced end-of-timestep reallocation: correctness and batch API.

PR 3 defers same-instant flow churn to one flush that runs just before
simulated time advances. These tests pin down the three properties that
make the deferral safe: (1) the order in which same-instant starts and
finishes are processed cannot change any observable rate or completion
time, (2) the max-min oracle (``tests/maxmin.py``) still validates
the rate table at every coalesced flush point, and (3)
``transfer_many`` is semantically identical to N individual
``transfer`` calls — on random topologies, and against the oracle's
replay.
"""

import random

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.core import Environment
from repro.sim.network import Network
from tests.maxmin import current_rate, install, replay

SCENARIOS = {
    "plain": dict(backbone=0.0, cap=0.0),
    "capped": dict(backbone=0.0, cap=35.0),
    "backbone": dict(backbone=180.0, cap=0.0),
    "backbone-capped": dict(backbone=180.0, cap=35.0),
}


def _random_requests(rng, n_nodes, k):
    return [
        (
            f"n{rng.randrange(n_nodes)}",
            f"n{rng.randrange(n_nodes)}",
            rng.choice([0, rng.uniform(0.5, 300.0)]),
        )
        for _ in range(k)
    ]


class TestSameInstantDeterminism:
    """Event-order permutations of same-instant churn → identical rates."""

    #: a fig6-like shape: several equal flows (their finishes then
    #: coincide) plus unequal ones sharing the same NICs
    REQUESTS = [
        ("n0", "n3", 120.0),
        ("n1", "n3", 120.0),
        ("n2", "n3", 120.0),
        ("n0", "n3", 40.0),
        ("n1", "n2", 200.0),
        ("n0", "n1", 75.0),
        ("n2", "n3", 120.0),
    ]

    def _completion_times(self, order, backbone, cap):
        env = Environment()
        net = Network(
            env, latency=0.001, backbone_bandwidth=backbone, flow_rate_cap=cap
        )
        for i in range(4):
            net.add_node(f"n{i}", bandwidth=120.0)
        times = {}

        def driver():
            evs = []
            for i in order:  # all started at the same instant, this order
                ev = net.transfer(*self.REQUESTS[i])
                ev.callbacks.append(
                    lambda _e, i=i: times.__setitem__(i, env.now)
                )
                evs.append(ev)
            for ev in evs:
                yield ev

        env.run(env.process(driver()))
        assert net.active_flows == 0
        assert len(times) == len(self.REQUESTS)
        return times

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", range(8))
    def test_permutations_agree(self, scenario, seed):
        params = SCENARIOS[scenario]
        base = self._completion_times(
            list(range(len(self.REQUESTS))), params["backbone"], params["cap"]
        )
        order = list(range(len(self.REQUESTS)))
        random.Random(seed).shuffle(order)
        permuted = self._completion_times(
            order, params["backbone"], params["cap"]
        )
        for i in base:
            assert permuted[i] == pytest.approx(base[i], rel=1e-12, abs=1e-12)

    def test_rates_observable_before_time_advances(self):
        """current_rate forces the pending flush, so same-instant starts
        are immediately observable at their final coalesced rates."""
        env = Environment()
        net = Network(env, latency=0.0)
        for n in ("a", "b", "c"):
            net.add_node(n, bandwidth=100.0)
        seen = []

        def driver():
            evs = net.transfer_many([("a", "c", 50.0), ("b", "c", 50.0)])
            # same simulated instant: the flush has not run yet
            seen.append(current_rate(net, "a", "c"))
            seen.append(current_rate(net, "b", "c"))
            for ev in evs:
                yield ev

        env.run(env.process(driver()))
        # c's ingress NIC (100) split max-min between the two flows
        assert seen == [pytest.approx(50.0), pytest.approx(50.0)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(20))
def test_oracle_validated_at_flush_points(scenario, seed):
    """The oracle re-runs the full recompute after every coalesced
    flush; bursty batched workloads must keep it green."""
    params = SCENARIOS[scenario]
    rng = random.Random(seed * 6151 + len(scenario))
    env = Environment()
    net = Network(
        env,
        latency=rng.choice([0.0, 0.001]),
        backbone_bandwidth=params["backbone"],
        flow_rate_cap=params["cap"],
    )
    install(net)
    n_nodes = rng.randint(3, 8)
    for i in range(n_nodes):
        net.add_node(f"n{i}", bandwidth=rng.choice([40.0, 100.0, 250.0]))

    def driver():
        pending = []
        for _ in range(rng.randint(2, 5)):
            k = rng.randint(1, 12)
            pending.extend(
                net.transfer_many(_random_requests(rng, n_nodes, k))
            )
            if rng.random() < 0.7:
                yield env.timeout(rng.uniform(0.0, 2.0))
        for ev in pending:
            yield ev

    env.run(env.process(driver()))
    assert net.active_flows == 0


class TestTransferManyEquivalence:
    """transfer_many == N× transfer, on seeded random topologies."""

    def _run(self, seed, use_batch):
        """Returns the network, the ``(t, src, dst, nbytes)`` requests
        and each one's finish time, keyed ``(wave, j)``."""
        rng = random.Random(seed)
        env = Environment()
        net = Network(
            env,
            latency=rng.choice([0.0, 0.001]),
            backbone_bandwidth=rng.choice([0.0, 200.0]),
            flow_rate_cap=rng.choice([0.0, 45.0]),
        )
        n_nodes = rng.randint(3, 7)
        for i in range(n_nodes):
            net.add_node(f"n{i}", bandwidth=rng.choice([60.0, 150.0]))
        requests = []
        times = {}

        def driver():
            evs = []
            for wave in range(rng.randint(1, 3)):
                reqs = _random_requests(rng, n_nodes, rng.randint(2, 10))
                requests.extend((env.now, *r) for r in reqs)
                if use_batch:
                    started = net.transfer_many(reqs)
                else:
                    started = [net.transfer(*r) for r in reqs]
                for j, ev in enumerate(started):
                    ev.callbacks.append(
                        lambda _e, key=(wave, j): times.__setitem__(
                            key, env.now
                        )
                    )
                evs.extend(started)
                yield env.timeout(rng.uniform(0.5, 2.0))
            for ev in evs:
                yield ev

        env.run(env.process(driver()))
        assert net.active_flows == 0
        return net, requests, times

    @pytest.mark.parametrize("seed", range(25))
    def test_batch_matches_individual_incremental(self, seed):
        _, _, batch = self._run(seed, use_batch=True)
        _, _, loose = self._run(seed, use_batch=False)
        assert batch.keys() == loose.keys()
        for key in batch:
            assert batch[key] == pytest.approx(
                loose[key], rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_batch_matches_reference_allocator(self, seed):
        net, requests, batch = self._run(seed, use_batch=True)
        want = replay(net, requests)  # in (wave, j) order
        assert len(batch) == len(want)
        for key, ref in zip(sorted(batch), want):
            assert batch[key] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_returns_events_in_request_order(self):
        env = Environment()
        net = Network(env, latency=0.01)
        for n in ("a", "b"):
            net.add_node(n, bandwidth=100.0)
        # mixes zero-byte (latency-only) and data-bearing requests
        reqs = [("a", "b", 0.0), ("a", "b", 100.0), ("b", "a", 0.0)]
        results = {}

        def driver():
            evs = net.transfer_many(reqs)
            assert len(evs) == len(reqs)
            for i, ev in enumerate(evs):
                ev.callbacks.append(
                    lambda _e, i=i: results.__setitem__(i, env.now)
                )
            for ev in evs:
                yield ev

        env.run(env.process(driver()))
        assert results[0] == pytest.approx(0.01)  # one latency leg
        assert results[2] == pytest.approx(0.01)
        assert results[1] == pytest.approx(0.01 + 1.0)  # 100 B at 100 B/s

    def test_rejects_negative_nbytes(self):
        env = Environment()
        net = Network(env)
        net.add_node("a", bandwidth=100.0)
        with pytest.raises(ValueError, match="non-negative"):
            net.transfer_many([("a", "a", -1.0)])


class TestCoalescingCounters:
    def _obs(self):
        return Observability(
            tracer=Tracer(enabled=False), registry=MetricsRegistry()
        )

    def test_burst_coalesces_into_few_flushes(self):
        obs = self._obs()
        env = Environment()
        net = Network(env, latency=0.0, obs=obs)
        for i in range(6):
            net.add_node(f"n{i}", bandwidth=100.0)
        reqs = [(f"n{i}", "n5", 80.0) for i in range(5) for _ in range(4)]

        def driver():
            for ev in net.transfer_many(reqs):
                yield ev

        env.run(env.process(driver()))
        reg = obs.registry
        flushes = reg.value("sim.net.flushes")
        coalesced = reg.value("sim.net.coalesced_changes")
        assert flushes > 0
        # 20 starts land in one flush; the equal-split finishes coalesce
        # too — far fewer reallocations than flow-change events
        assert coalesced >= len(reqs)
        assert flushes < coalesced
        assert reg.value("sim.net.reallocs") <= flushes

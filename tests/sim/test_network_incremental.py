"""Differential tests: the network's allocator vs the max-min oracle.

``tests.maxmin.install`` re-runs the progressive-filling recompute over
the whole flow table at every end-of-timestep flush and asserts each
flow's rate agrees to 1e-6 relative — exercised here over hundreds of
seeded random topologies, with and without a blocking backbone and
per-flow caps, plus an end-to-end check that the network's completion
times are the ones a fluid replay under the oracle's rates gives.
"""

import random
import zlib

import pytest

from repro.sim.core import Environment
from repro.sim.network import Network
from tests.maxmin import active_flows_between, install, replay

#: seeded topology/workload count per scenario (4 scenarios -> 240 total)
SEEDS_PER_SCENARIO = 60

SCENARIOS = {
    "plain": dict(backbone=0.0, cap=0.0),
    "capped": dict(backbone=0.0, cap=35.0),
    "backbone": dict(backbone=180.0, cap=0.0),
    "backbone-capped": dict(backbone=180.0, cap=35.0),
}


def _drive_random_workload(seed: int, backbone: float, cap: float):
    """Random topology + arrival pattern; returns the network, the
    ``(t, src, dst, nbytes)`` requests and each one's finish time."""
    rng = random.Random(seed)
    env = Environment()
    net = Network(
        env,
        latency=rng.choice([0.0, 0.001]),
        backbone_bandwidth=backbone,
        flow_rate_cap=cap,
    )
    install(net)
    n_nodes = rng.randint(3, 9)
    for i in range(n_nodes):
        net.add_node(f"n{i}", bandwidth=rng.choice([40.0, 100.0, 250.0]))
    n_transfers = rng.randint(4, 18)
    requests = []
    finished = {}

    def driver():
        events = []
        for t in range(n_transfers):
            src = f"n{rng.randrange(n_nodes)}"
            dst = f"n{rng.randrange(n_nodes)}"  # src==dst (local) allowed
            nbytes = rng.choice([0, rng.uniform(0.5, 400.0)])
            requests.append((env.now, src, dst, nbytes))
            ev = net.transfer(src, dst, nbytes)
            ev.callbacks.append(lambda _e, t=t: finished.__setitem__(t, env.now))
            events.append(ev)
            if rng.random() < 0.6:
                yield env.timeout(rng.uniform(0.0, 2.5))
        for ev in events:
            yield ev

    env.run(env.process(driver()))
    assert net.active_flows == 0
    return net, requests, [finished[t] for t in range(n_transfers)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(SEEDS_PER_SCENARIO))
def test_incremental_matches_reference_oracle(scenario, seed):
    """Every flush's rates agree with the full recompute."""
    params = SCENARIOS[scenario]
    _drive_random_workload(
        seed * 7919 + zlib.crc32(scenario.encode()) % 1000, **params
    )


@pytest.mark.parametrize("seed", range(25))
def test_allocators_agree_on_completion_times(seed):
    """The network's finish times are the oracle replay's (up to fp
    accumulation-order noise)."""
    net, requests, got = _drive_random_workload(seed, backbone=0.0, cap=50.0)
    want = replay(net, requests)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-12), i


class TestPairIndex:
    def test_active_flows_between_tracks_and_drains(self):
        env = Environment()
        net = Network(env)
        for n in ("a", "b", "c"):
            net.add_node(n, bandwidth=100.0)
        seen = []

        def probe():
            yield env.timeout(0.1)
            seen.append(
                (
                    active_flows_between(net, "a", "b"),
                    active_flows_between(net, "a", "c"),
                    active_flows_between(net, "b", "a"),
                )
            )

        evs = [
            net.transfer("a", "b", 100.0),
            net.transfer("a", "b", 100.0),
            net.transfer("a", "c", 100.0),
        ]
        env.process(probe())

        def main():
            for ev in evs:
                yield ev

        env.run(env.process(main()))
        assert seen == [(2, 1, 0)]
        assert active_flows_between(net, "a", "b") == 0
        assert active_flows_between(net, "a", "c") == 0
        assert net.active_flows == 0

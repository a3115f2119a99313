"""Differential tests: incremental allocator vs the reference recompute.

``Network.check_reference = True`` re-runs the reference progressive
filling over the whole flow table after every incremental flow-change
event and asserts each flow's rate agrees to 1e-6 relative — the oracle
is exercised here over hundreds of seeded random topologies, with and
without a blocking backbone and per-flow caps, plus an end-to-end check
that both allocators produce the same completion times.
"""

import random
import zlib

import pytest

from repro.sim.core import Environment
from repro.sim.network import Network

#: seeded topology/workload count per scenario (4 scenarios -> 240 total)
SEEDS_PER_SCENARIO = 60

SCENARIOS = {
    "plain": dict(backbone=0.0, cap=0.0),
    "capped": dict(backbone=0.0, cap=35.0),
    "backbone": dict(backbone=180.0, cap=0.0),
    "backbone-capped": dict(backbone=180.0, cap=35.0),
}


def _drive_random_workload(
    seed: int,
    backbone: float,
    cap: float,
    allocator: str = "incremental",
    check: bool = True,
):
    """Random topology + arrival pattern; returns per-transfer finish times."""
    rng = random.Random(seed)
    env = Environment()
    net = Network(
        env,
        latency=rng.choice([0.0, 0.001]),
        backbone_bandwidth=backbone,
        flow_rate_cap=cap,
        allocator=allocator,
    )
    net.check_reference = check
    n_nodes = rng.randint(3, 9)
    for i in range(n_nodes):
        net.add_node(f"n{i}", bandwidth=rng.choice([40.0, 100.0, 250.0]))
    n_transfers = rng.randint(4, 18)
    finished = {}
    events = []

    def driver():
        for t in range(n_transfers):
            src = f"n{rng.randrange(n_nodes)}"
            dst = f"n{rng.randrange(n_nodes)}"  # src==dst (local) allowed
            nbytes = rng.choice([0, rng.uniform(0.5, 400.0)])
            events.append((t, net.transfer(src, dst, nbytes)))
            if rng.random() < 0.6:
                yield env.timeout(rng.uniform(0.0, 2.5))
        for t, ev in events:
            finished[t] = yield ev

    env.run(env.process(driver()))
    assert net.active_flows == 0
    return env.now, finished


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(SEEDS_PER_SCENARIO))
def test_incremental_matches_reference_oracle(scenario, seed):
    """Every flow-change event's rates agree with the full recompute."""
    params = SCENARIOS[scenario]
    _drive_random_workload(
        seed * 7919 + zlib.crc32(scenario.encode()) % 1000, **params
    )


@pytest.mark.parametrize("seed", range(25))
def test_allocators_agree_on_completion_times(seed):
    """Same workload end-to-end under both allocators: identical finish
    times (up to fp accumulation-order noise)."""
    t_inc, fin_inc = _drive_random_workload(
        seed, backbone=0.0, cap=50.0, allocator="incremental", check=False
    )
    t_ref, fin_ref = _drive_random_workload(
        seed, backbone=0.0, cap=50.0, allocator="reference", check=False
    )
    assert t_inc == pytest.approx(t_ref, rel=1e-9)
    assert fin_inc.keys() == fin_ref.keys()
    for t in fin_inc:
        assert fin_inc[t] == pytest.approx(fin_ref[t], rel=1e-9, abs=1e-12)


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
                    net.active_flows_between("a", "b"),
                    net.active_flows_between("a", "c"),
                    net.active_flows_between("b", "a"),
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
        assert net.active_flows_between("a", "b") == 0
        assert net.active_flows_between("a", "c") == 0
        assert net.active_flows == 0

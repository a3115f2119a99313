"""Tests for the two-level (rack switch + core) topology."""

import pytest

from repro.sim.core import Environment
from repro.sim.network import Network
from tests.maxmin import install


def make_racked(bw=100.0, rack_bw=150.0, racks=2, per_rack=2):
    """*racks* racks of *per_rack* nodes: node r-i is ``n{r}{i}``."""
    env = Environment()
    net = Network(env, latency=0.0)
    for r in range(racks):
        net.add_rack(f"rack{r}", bandwidth=rack_bw)
    for r in range(racks):
        for i in range(per_rack):
            net.add_node(f"n{r}{i}", bandwidth=bw, rack=f"rack{r}")
    return env, net


def finish(env, ev):
    done = {}

    def main():
        done["t"] = yield ev

    env.run(env.process(main()))
    return done["t"]


class TestRackWiring:
    def test_duplicate_rack_rejected(self):
        env = Environment()
        net = Network(env)
        net.add_rack("r", bandwidth=10.0)
        with pytest.raises(ValueError):
            net.add_rack("r", bandwidth=10.0)

    def test_non_positive_rack_bandwidth_rejected(self):
        env = Environment()
        net = Network(env)
        with pytest.raises(ValueError):
            net.add_rack("r", bandwidth=0.0)

    def test_unknown_rack_rejected(self):
        env = Environment()
        net = Network(env)
        with pytest.raises(ValueError):
            net.add_node("n0", bandwidth=10.0, rack="nope")


class TestRackRates:
    def test_intra_rack_bypasses_uplink(self):
        # rack uplink (150) is slower than two NICs could go; an
        # intra-rack flow turns around at the rack switch and gets the
        # full NIC rate anyway
        env, net = make_racked(bw=100.0, rack_bw=50.0)
        t = finish(env, net.transfer("n00", "n01", 100.0))
        assert t == pytest.approx(1.0)  # NIC-limited, not uplink-limited

    def test_inter_rack_pinched_by_uplink(self):
        env, net = make_racked(bw=100.0, rack_bw=50.0)
        t = finish(env, net.transfer("n00", "n10", 100.0))
        assert t == pytest.approx(2.0)  # 50 B/s through the uplinks

    def test_uplink_shared_by_concurrent_inter_rack_flows(self):
        env, net = make_racked(bw=100.0, rack_bw=100.0)
        e1 = net.transfer("n00", "n10", 100.0)
        e2 = net.transfer("n01", "n11", 100.0)
        done = {}

        def main():
            done["t1"] = yield e1
            done["t2"] = yield e2

        env.run(env.process(main()))
        # both flows share rack0's 100 B/s uplink: 50 each
        assert done["t1"] == pytest.approx(2.0)
        assert done["t2"] == pytest.approx(2.0)

    def test_unracked_nodes_unaffected(self):
        # nodes without a rack keep the flat-fabric behavior even when
        # racks exist elsewhere in the topology
        env, net = make_racked(bw=100.0, rack_bw=10.0)
        net.add_node("flat0", bandwidth=100.0)
        net.add_node("flat1", bandwidth=100.0)
        t = finish(env, net.transfer("flat0", "flat1", 100.0))
        assert t == pytest.approx(1.0)

    def test_oracle_agrees_on_mixed_rack_topology(self):
        env, net = make_racked(bw=100.0, rack_bw=120.0, per_rack=3)
        # every flush verifies the network's rates against the
        # full-recompute oracle (which solves over each flow's
        # rack-aware resource path independently)
        checked = install(net)
        events = [
            net.transfer("n00", "n01", 300.0),  # intra-rack
            net.transfer("n02", "n10", 300.0),  # inter-rack
            net.transfer("n11", "n12", 300.0),  # intra-rack, other side
            net.transfer("n12", "n00", 200.0),  # inter-rack, reverse
        ]

        def main():
            for ev in events:
                yield ev

        env.run(env.process(main()))
        assert env.now > 0.0 and checked.flows > 0

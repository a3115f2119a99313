"""Unit + property tests for the flow-level network model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import Environment
from repro.sim.network import Network
from tests.maxmin import current_rate


def make_net(n_nodes=4, bw=100.0, latency=0.0, cap=0.0):
    env = Environment()
    net = Network(env, latency=latency, flow_rate_cap=cap)
    for i in range(n_nodes):
        net.add_node(f"n{i}", bandwidth=bw)
    return env, net


def finish_times(env, events):
    times = {}

    def main():
        for name, ev in events.items():
            times[name] = (yield ev)

    env.run(env.process(main()))
    return times


class TestSingleFlow:
    def test_full_rate(self):
        env, net = make_net()
        ev = net.transfer("n0", "n1", 200.0)
        t = finish_times(env, {"x": ev})["x"]
        assert t == pytest.approx(2.0)

    def test_latency_added(self):
        env, net = make_net(latency=0.5)
        ev = net.transfer("n0", "n1", 100.0)
        assert finish_times(env, {"x": ev})["x"] == pytest.approx(1.5)

    def test_zero_bytes_is_latency_only(self):
        env, net = make_net(latency=0.25)
        ev = net.transfer("n0", "n1", 0)
        times = finish_times(env, {"x": ev})
        assert env.now == pytest.approx(0.25)

    def test_local_transfer_is_fast(self):
        env, net = make_net()
        ev = net.transfer("n0", "n0", 100.0)
        t = finish_times(env, {"x": ev})["x"]
        assert t < 0.001  # loopback, not NIC-limited


class TestSharing:
    def test_two_flows_into_one_destination_halve(self):
        env, net = make_net()
        e1 = net.transfer("n0", "n2", 100.0)
        e2 = net.transfer("n1", "n2", 100.0)
        times = finish_times(env, {"a": e1, "b": e2})
        assert times["a"] == times["b"] == pytest.approx(2.0)

    def test_two_flows_out_of_one_source_halve(self):
        env, net = make_net()
        e1 = net.transfer("n0", "n1", 100.0)
        e2 = net.transfer("n0", "n2", 100.0)
        times = finish_times(env, {"a": e1, "b": e2})
        assert times["a"] == times["b"] == pytest.approx(2.0)

    def test_disjoint_flows_do_not_interfere(self):
        env, net = make_net()
        e1 = net.transfer("n0", "n1", 100.0)
        e2 = net.transfer("n2", "n3", 100.0)
        times = finish_times(env, {"a": e1, "b": e2})
        assert times["a"] == times["b"] == pytest.approx(1.0)

    def test_released_bandwidth_is_reused(self):
        """A short flow finishing releases capacity to a longer one."""
        env, net = make_net()
        long = net.transfer("n0", "n2", 150.0)
        short = net.transfer("n1", "n2", 50.0)
        times = finish_times(env, {"long": long, "short": short})
        # both at 50 B/s until short finishes at t=1 (50B); long then has
        # 100B left at 100 B/s -> t=2
        assert times["short"] == pytest.approx(1.0)
        assert times["long"] == pytest.approx(2.0)

    def test_max_min_three_flow_asymmetry(self):
        """Two flows into n2 and one n1->n3: the n1 uplink carries two
        flows only in one direction; max-min gives the lone flow more."""
        env, net = make_net(n_nodes=5)
        a = net.transfer("n0", "n2", 100.0)  # shares n2 down
        b = net.transfer("n1", "n2", 100.0)  # shares n2 down + n1 up
        c = net.transfer("n3", "n4", 100.0)  # independent
        times = finish_times(env, {"a": a, "b": b, "c": c})
        assert times["c"] == pytest.approx(1.0)
        assert times["a"] == pytest.approx(2.0)
        assert times["b"] == pytest.approx(2.0)


class TestFlowCap:
    def test_cap_limits_single_flow(self):
        env, net = make_net(cap=25.0)
        ev = net.transfer("n0", "n1", 100.0)
        assert finish_times(env, {"x": ev})["x"] == pytest.approx(4.0)

    def test_capped_flows_leave_headroom(self):
        """With a 40 B/s cap on a 100 B/s NIC, two flows into one node
        run at 40 each instead of 50/50."""
        env, net = make_net(cap=40.0)
        e1 = net.transfer("n0", "n2", 80.0)
        e2 = net.transfer("n1", "n2", 80.0)
        times = finish_times(env, {"a": e1, "b": e2})
        assert times["a"] == times["b"] == pytest.approx(2.0)

    def test_three_capped_flows_share_fairly(self):
        """Three 40-capped flows into one 100 B/s NIC: fair share 33.3."""
        env, net = make_net(n_nodes=5, cap=40.0)
        evs = {
            i: net.transfer(f"n{i}", "n4", 100.0) for i in range(3)
        }
        times = finish_times(env, evs)
        for t in times.values():
            assert t == pytest.approx(3.0)


class TestRPCAndIntrospection:
    def test_current_rate_during_transfer(self):
        env, net = make_net()
        net.transfer("n0", "n1", 1000.0)
        net.transfer("n0", "n2", 1000.0)

        def probe():
            yield env.timeout(1.0)
            return current_rate(net, "n0", "n1"), net.active_flows

        rate, flows = env.run(env.process(probe()))
        assert rate == pytest.approx(50.0)  # n0's uplink split two ways
        assert flows == 2
        env.run()

    def test_active_flows_drains(self):
        env, net = make_net()
        ev = net.transfer("n0", "n1", 10.0)
        finish_times(env, {"x": ev})
        assert net.active_flows == 0


class TestAccounting:
    def test_byte_counters(self):
        """Every byte is delivered at the NIC rate, and the transfer is
        counted once."""
        env, net = make_net()
        ev = net.transfer("n0", "n1", 123.0)
        assert finish_times(env, {"x": ev})["x"] == pytest.approx(1.23)
        assert net.completed_transfers == 1

    def test_duplicate_node_rejected(self):
        env, net = make_net()
        with pytest.raises(ValueError):
            net.add_node("n0", bandwidth=1.0)

    def test_negative_bytes_rejected(self):
        env, net = make_net()
        with pytest.raises(ValueError):
            net.transfer("n0", "n1", -1)


@settings(max_examples=30, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=1.0, max_value=1000.0),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_conservation_property(flows):
    """Every transfer completes; makespan is bounded below by the most
    loaded NIC direction and above by serial execution."""
    env, net = make_net(n_nodes=6, bw=100.0)
    events = {}
    up = [0.0] * 6
    down = [0.0] * 6
    for i, (s, d, nbytes) in enumerate(flows):
        events[i] = net.transfer(f"n{s}", f"n{d}", nbytes)
        if s != d:
            up[s] += nbytes
            down[d] += nbytes
    finish_times(env, events)
    lower = max(max(up), max(down)) / 100.0
    assert env.now >= lower - 1e-6
    assert env.now <= sum(f[2] for f in flows) / 100.0 * len(flows) + 1.0
    assert net.completed_transfers == len(flows) and net.active_flows == 0

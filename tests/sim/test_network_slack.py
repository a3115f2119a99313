"""The incremental allocator works only where a link can saturate.

A resource whose members' rate bounds sum to no more than its capacity
(``demand <= capacity``) carries at most that sum under any allocation,
so it never freezes a flow in progressive filling and deleting it leaves
the max-min allocation unchanged. The allocator leans on that three
ways — a flow with no binding resource starts at its bound, a departure
dirties only what could bind before it left, the refill neither walks
through nor solves over slack resources — and these tests hold each of
them against the max-min oracle (``tests/maxmin.py``):

(a) a hypothesis differential over random flat and two-level fabrics,
(b) the edges (the tipping flow, the tipping departure, the exact tie,
    drift of the running sum, rates observed inside a timestep),
(c) operation counts: traffic on slack links never reaches the solver
    and costs the same per flow however much of it there is,
(d) poisoned allocators — the "could bind *before* it left" rule
    dropped, a fill that ignores sharing — that (a) must catch, in the
    style of the lints' self-tests.
"""

import random
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim import network as network_module
from repro.sim.core import Environment
from repro.sim.network import Network
from tests.maxmin import (
    RATE_REL,
    active_flows_between,
    current_rate,
    install,
    replay,
)

NIC = 100.0


def _obs():
    return Observability(tracer=Tracer(enabled=False), registry=MetricsRegistry())


def _counters(obs):
    reg = obs.registry
    return {
        name: int(reg.value(f"sim.net.{name}"))
        for name in ("flow_changes", "reallocs", "realloc_full", "flushes")
    }


# -- (a) differential: random fabrics and scripts vs the oracle ---------------

#: heterogeneous NICs; a rack link is 1x to 8x the base NIC
_NIC_CHOICES = (40.0, NIC, 250.0)


@st.composite
def scenarios(draw):
    n_racks = draw(st.integers(min_value=0, max_value=3))  # 0 = flat
    racks = [
        NIC * draw(st.integers(min_value=1, max_value=8)) for _ in range(n_racks)
    ]
    n_nodes = draw(st.integers(min_value=2, max_value=7))
    nodes = [
        (
            draw(st.sampled_from(_NIC_CHOICES)),
            # a rackless node beside racks is a core node
            draw(st.integers(min_value=-1, max_value=n_racks - 1)),
        )
        for _ in range(n_nodes)
    ]
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    transfer = st.tuples(
        node, node,  # src == dst is a loopback flow
        # half-byte steps: the oracle's replay finishes a flow with
        # under 1e-3 bytes left together with the one that just finished,
        # so arbitrarily close sizes are a difference it is allowed
        st.integers(min_value=1, max_value=800).map(lambda k: 0.5 * k),
    )
    batches = draw(
        st.lists(
            st.tuples(
                # gap before the batch; 0.0 joins the previous instant
                st.sampled_from((0.0, 0.0, 0.25, 1.0, 2.5)),
                st.lists(transfer, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return dict(
        racks=racks,
        nodes=nodes,
        cap=draw(st.sampled_from((0.0, 30.0, 270.0))),
        backbone=draw(st.sampled_from((0.0, 0.0, 180.0))),
        latency=draw(st.sampled_from((0.0, 0.001))),
        batches=batches,
    )


def _check_against_oracle(scenario):
    """Run *scenario* with the oracle checking every flush, then hold
    its completion times to the oracle's replay."""
    env = Environment()
    net = Network(
        env,
        latency=scenario["latency"],
        backbone_bandwidth=scenario["backbone"],
        flow_rate_cap=scenario["cap"],
    )
    install(net)
    for r, bandwidth in enumerate(scenario["racks"]):
        net.add_rack(f"r{r}", bandwidth=bandwidth)
    for i, (bandwidth, rack) in enumerate(scenario["nodes"]):
        net.add_node(
            f"n{i}", bandwidth=bandwidth, rack=None if rack < 0 else f"r{rack}"
        )
    requests = []
    finished = {}

    def driver():
        events = []
        for gap, transfers in scenario["batches"]:
            if gap > 0.0:
                yield env.timeout(gap)
            for src, dst, nbytes in transfers:
                requests.append((env.now, f"n{src}", f"n{dst}", nbytes))
                events.append(net.transfer(f"n{src}", f"n{dst}", nbytes))
        for i, ev in enumerate(events):
            finished[i] = yield ev

    env.run(env.process(driver()))
    assert net.active_flows == 0
    for node in net.nodes.values():
        path = (node._up_res, node._down_res, node._rack_up, node._rack_down)
        for res in path + (net._backbone,):
            if res is not None:
                assert not res.members and res.demand == 0.0
    for i, want in enumerate(replay(net, requests)):
        assert finished[i] == pytest.approx(want, rel=RATE_REL, abs=1e-12), i


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(scenarios())
def test_slack_scoping_matches_reference(scenario):
    _check_against_oracle(scenario)


# -- (d) the differential test catches a poisoned allocator -------------------


def _assert_the_flush_check_catches_it():
    """Within (a)'s example budget, some scenario trips the oracle's
    flush check (not only the completion-time comparison after it)."""

    @settings(
        max_examples=150,
        deadline=None,
        database=None,
        derandomize=True,
        report_multiple_bugs=False,
        phases=[Phase.generate],  # finding it is the point, not shrinking it
    )
    @given(scenarios())
    def poisoned(scenario):
        _check_against_oracle(scenario)

    with pytest.raises(AssertionError, match="diverged from max-min"):
        poisoned()


def _leave_then_look(self, flow):
    """``Network._leave`` with its rule dropped: the resources are
    tested *after* the flow's bound has left their demand, so the
    departure that tips a link back to slack dirties nothing and the
    flows it was holding back keep their old rates."""
    could_bind = []
    for res in flow.resources:
        res.members.discard(flow.fid)
        res.demand = res.demand - flow.bound if res.members else 0.0
        if res.demand > res.bind_above:
            could_bind.append(res)
    return could_bind


def test_the_differential_test_catches_a_departure_judged_after_it_left(
    monkeypatch,
):
    monkeypatch.setattr(Network, "_leave", _leave_then_look)
    _assert_the_flush_check_catches_it()


def _fill_to_the_bounds(self, comp):
    """``Network._fill`` that ignores sharing: every flow of the
    component gets its ``bound``, as if each ran alone on its path."""
    return {flow.fid: flow.bound for flow in comp}


def test_the_differential_test_catches_a_fill_that_ignores_sharing(
    monkeypatch,
):
    monkeypatch.setattr(Network, "_fill", _fill_to_the_bounds)
    _assert_the_flush_check_catches_it()


# -- (b) edges -----------------------------------------------------------------


def _fan_in(cap, obs=None):
    """Four sources s0..s3 that can each send to ``d``, beside ``x``,
    ``y`` and ``z`` for bystander flows that share only slack links (or
    nothing) with the fan-in."""
    env = Environment()
    net = Network(env, latency=0.0, flow_rate_cap=cap, obs=obs)
    for name in ("d", "x", "y", "z", "s0", "s1", "s2", "s3"):
        net.add_node(name, bandwidth=NIC)
    return env, net


class TestTipping:
    def test_the_flow_that_tips_a_link_slows_exactly_its_members(self):
        obs = _obs()
        env, net = _fan_in(30.0, obs)
        d_down = net.nodes["d"]._down_res
        seen = {}

        def driver():
            net.transfer("s0", "z", 1e4)
            net.transfer("x", "y", 1e4)
            for i in range(3):
                net.transfer(f"s{i}", "d", 1e4)
            yield env.timeout(1.0)
            seen["slack"] = (
                [current_rate(net, f"s{i}", "d") for i in range(3)],
                d_down.demand,
                _counters(obs)["reallocs"],
            )
            net.transfer("s3", "d", 1e4)  # 4 x 30 > 100
            yield env.timeout(1.0)
            seen["binding"] = [current_rate(net, f"s{i}", "d") for i in range(4)]
            seen["bystanders"] = [
                current_rate(net, "s0", "z"),
                current_rate(net, "x", "y"),
            ]

        env.run(env.process(driver()))
        assert seen["slack"] == ([30.0] * 3, 90.0, 0)
        assert seen["binding"] == [25.0] * 4
        assert seen["bystanders"] == [30.0, 30.0]
        # one solve, over the four members of d's ingress and nobody else
        scope = obs.registry.histogram("sim.net.realloc_scope")
        assert (scope.count, scope.max) == (1, 4.0)

    def test_the_departure_that_tips_it_back_speeds_them_up(self):
        env, net = _fan_in(30.0)
        seen = {}

        def driver():
            net.transfer("s0", "d", 10.0)  # leaves at t = 0.4
            for i in range(1, 4):
                net.transfer(f"s{i}", "d", 1e4)
            yield env.timeout(0.2)
            seen["before"] = [current_rate(net, f"s{i}", "d") for i in range(4)]
            yield env.timeout(0.4)
            seen["after"] = [current_rate(net, f"s{i}", "d") for i in range(1, 4)]
            seen["demand"] = net.nodes["d"]._down_res.demand

        env.run(env.process(driver()))
        assert seen["before"] == [25.0] * 4
        # 3 x 30 <= 100: d's ingress is slack again, but it could bind
        # when the flow left, so its members were refilled
        assert seen["after"] == [30.0] * 3
        assert seen["demand"] == 90.0

    def test_bounds_summing_to_the_capacity_exactly_count_as_binding(self):
        obs = _obs()
        env, net = _fan_in(25.0, obs)
        d_down = net.nodes["d"]._down_res
        seen = {}

        def driver():
            for i in range(4):
                net.transfer(f"s{i}", "d", 1e4)
            seen["rates"] = [current_rate(net, f"s{i}", "d") for i in range(4)]
            seen["demand"] = d_down.demand
            seen["binds"] = d_down.demand > d_down.bind_above
            yield env.timeout(1.0)
            seen["reallocs"] = _counters(obs)["reallocs"]

        env.run(env.process(driver()))
        # the tie falls on the solver's side: same rates, one solve
        assert seen == {
            "rates": [25.0] * 4, "demand": NIC, "binds": True, "reallocs": 1,
        }


class TestDemandBookkeeping:
    def test_1e5_add_remove_cycles_leave_demand_exactly_zero(self):
        """Bounds that are not representable sums (0.1, 0.7, a third)
        added and subtracted 10^5 times: the running sum stays within
        rounding of the true one while the link is busy and is exactly
        0.0 once it is idle, so it cannot drift into a false verdict."""
        env = Environment()
        net = Network(env, latency=0.0, flow_rate_cap=0.7)
        for name, bandwidth in (("a", 0.1), ("b", 1.0 / 3.0), ("c", NIC), ("d", NIC)):
            net.add_node(name, bandwidth=bandwidth)
        d_down = net.nodes["d"]._down_res
        rng = random.Random(5)
        bounds = {"a": 0.1, "b": 1.0 / 3.0, "c": 0.7}
        worst = [0.0]

        def client(src, n):
            for _ in range(n):
                yield net.transfer(src, "d", rng.uniform(0.01, 0.2))
                true = sum(
                    active_flows_between(net, s, "d") * b for s, b in bounds.items()
                )
                worst[0] = max(worst[0], abs(d_down.demand - true))

        def driver():
            # ten overlapping clients keep d's ingress busy throughout
            procs = [
                env.process(client(src, 10_000))
                for src in ("a", "b", "c", "c", "c", "a", "b", "c", "a", "b")
            ]
            for p in procs:
                yield p

        env.run(env.process(driver()))
        assert net.completed_transfers == 100_000
        assert worst[0] < 1e-9
        for node in net.nodes.values():
            for res in (node._up_res, node._down_res):
                assert res.demand == 0.0 and not res.members


class TestRatesInsideATimestep:
    def test_current_rate_with_pending_churn(self):
        env, net = _fan_in(30.0)
        seen = []

        def driver():
            net.transfer("s0", "s0", 1e4)  # loopback
            for i in range(3):
                net.transfer(f"s{i}", "d", 1e4)
            # slack so far: running at their bound, nothing pending
            assert not net._dirty
            seen.append([current_rate(net, f"s{i}", "d") for i in range(3)])
            net.transfer("s3", "d", 1e4)
            # the tipping flow is pending; reading a rate settles it
            assert net._dirty
            seen.append([current_rate(net, f"s{i}", "d") for i in range(4)])
            seen.append(current_rate(net, "s0", "s0"))
            yield env.timeout(0.0)

        env.run(env.process(driver()))
        assert seen == [[30.0] * 3, [25.0] * 4, 30.0]


# -- (c) operation counts --------------------------------------------------------


def _fat_uplink(n_pairs, obs=None):
    """Two racks of *n_pairs* nodes; ClusterConfig's proportions: a
    1,150 NIC, a 270 per-flow cap and a 4-NIC rack uplink, so the
    uplink binds from its 18th flow and a NIC from its 5th."""
    env = Environment()
    net = Network(env, latency=0.0, flow_rate_cap=270.0, obs=obs)
    net.add_rack("ra", bandwidth=4 * 1150.0)
    net.add_rack("rb", bandwidth=4 * 1150.0)
    for i in range(n_pairs):
        net.add_node(f"a{i}", bandwidth=1150.0, rack="ra")
        net.add_node(f"b{i}", bandwidth=1150.0, rack="rb")
    return env, net


class TestOpCounts:
    def test_capped_flows_over_a_fat_uplink_never_reach_the_solver(
        self, monkeypatch
    ):
        fills = []
        real_fill = Network._fill

        def counting_fill(self, comp):
            fills.append(len(comp))
            return real_fill(self, comp)

        monkeypatch.setattr(Network, "_fill", counting_fill)
        obs = _obs()
        n = 16  # 16 x 270 = 4,320 <= 4,600
        env, net = _fat_uplink(n, obs)
        install(net)

        def driver():
            events = [
                net.transfer(f"a{i}", f"b{i}", 100.0 * (i + 1)) for i in range(n)
            ]
            assert all(current_rate(net, f"a{i}", f"b{i}") == 270.0 for i in range(n))
            for ev in events:
                yield ev

        env.run(env.process(driver()))
        assert fills == []
        assert _counters(obs) == {
            "flow_changes": 2 * n, "reallocs": 0, "realloc_full": 0, "flushes": 0,
        }

    def test_the_18th_flow_over_the_uplink_does(self):
        obs = _obs()
        n = 18  # 18 x 270 = 4,860 > 4,600
        env, net = _fat_uplink(n, obs)
        install(net)
        seen = []

        def driver():
            events = [net.transfer(f"a{i}", f"b{i}", 1e4) for i in range(n)]
            seen.append(current_rate(net, "a0", "b0"))
            for ev in events:
                yield ev

        env.run(env.process(driver()))
        assert seen == [pytest.approx(4600.0 / 18)]
        counters = _counters(obs)
        assert counters["reallocs"] >= 1 and counters["realloc_full"] >= 1

    @staticmethod
    def _network_calls_per_flow(n_pairs, rounds):
        """Python calls made inside ``sim/network.py`` per flow while
        *n_pairs* pairs each move *rounds* transfers across the uplink,
        staggered so no two flow changes share an instant."""
        env, net = _fat_uplink(n_pairs)
        code_file = network_module.__file__
        calls = [0]

        def profiler(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == code_file:
                calls[0] += 1

        def client(i):
            yield env.timeout(0.001 * i)
            for _ in range(rounds):
                yield net.transfer(f"a{i}", f"b{i}", 270.0)

        def driver():
            procs = [env.process(client(i)) for i in range(n_pairs)]
            for p in procs:
                yield p

        main = env.process(driver())
        sys.setprofile(profiler)
        try:
            env.run(main)
        finally:
            sys.setprofile(None)
        assert net.completed_transfers == n_pairs * rounds
        return calls[0] / (n_pairs * rounds)

    def test_slack_traffic_costs_the_same_per_flow_at_4x_the_flows(self):
        few = self._network_calls_per_flow(4, 20)
        many = self._network_calls_per_flow(16, 20)
        assert many == pytest.approx(few, rel=0.02)


# -- the full-recompute counter ----------------------------------------------------


class TestReallocFull:
    def test_the_empty_refill_after_the_last_flow_is_not_a_full_recompute(self):
        obs = _obs()
        env = Environment()
        net = Network(env, latency=0.0, obs=obs)  # uncapped: a NIC binds alone
        net.add_node("a", bandwidth=NIC)
        net.add_node("b", bandwidth=NIC)

        def driver():
            yield net.transfer("a", "b", 100.0)
            yield env.timeout(1.0)

        env.run(env.process(driver()))
        # the start solves the one flow there is (full); the finish
        # refills an empty component (a solve, but not a full one)
        counters = _counters(obs)
        assert (counters["reallocs"], counters["realloc_full"]) == (2, 1)

    def test_a_loopback_flow_does_not_hide_a_full_recompute(self):
        obs = _obs()
        env = Environment()
        net = Network(env, latency=0.0, obs=obs)
        for name in ("a", "b", "c"):
            net.add_node(name, bandwidth=NIC)

        def driver():
            local = net.transfer("a", "a", 1e12)  # outlives the others
            yield net.transfer_many([("a", "c", 50.0), ("b", "c", 50.0)])[0]
            yield env.timeout(5.0)
            assert not local.triggered
            assert _counters(obs)["realloc_full"] >= 1

        env.run(env.process(driver()))
        # every non-empty solve spanned all the non-local flows in flight
        scope = obs.registry.histogram("sim.net.realloc_scope")
        counters = _counters(obs)
        solved_something = sum(1 for s in scope._samples if s > 0)
        assert counters["realloc_full"] == solved_something > 0

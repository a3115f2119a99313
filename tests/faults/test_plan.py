"""Unit tests for fault plans, retry policy, and the drivers."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.rng import substream
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ThreadedFaultDriver,
    schedule_plan,
)
from repro.obs import Observability
from repro.sim.core import Environment


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("gremlin", "x", 0.0)
        with pytest.raises(ValueError):
            # metadata lives in the in-process DHT: nothing to crash
            FaultSpec("metadata", "0", 0.0)
        with pytest.raises(ValueError):
            FaultSpec("provider", "x", -1.0)
        with pytest.raises(ValueError):
            FaultSpec("provider", "x", 0.0, duration=0.0)
        with pytest.raises(ValueError):
            FaultSpec("provider", "x", 0.0, probability=1.5)

    def test_builder_chains(self):
        plan = (
            FaultPlan()
            .crash("provider", "p0", at=1.0)
            .crash("datanode", "d1", at=2.0, duration=3.0)
        )
        assert len(plan) == 2
        assert [s.target for s in plan] == ["p0", "d1"]


class TestMaterialize:
    def test_certain_faults_need_no_rng(self):
        plan = FaultPlan().crash("provider", "p0", at=0.5)
        assert plan.materialize() == plan.specs

    def test_probabilistic_faults_require_rng(self):
        plan = FaultPlan().crash("provider", "p0", at=0.5, probability=0.5)
        with pytest.raises(ValueError):
            plan.materialize()

    def test_materialize_is_seed_deterministic(self):
        plan = FaultPlan()
        for i in range(20):
            plan.crash("provider", f"p{i}", at=float(i), probability=0.5)
        picks_a = plan.materialize(substream(42, "faults"))
        picks_b = plan.materialize(substream(42, "faults"))
        assert picks_a == picks_b
        assert 0 < len(picks_a) < 20  # both outcomes occur at p=0.5, n=20


class TestRetryPolicy:
    def test_backoff_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_from_cluster(self):
        cfg = ClusterConfig(
            rpc_timeout=0.25,
            rpc_retry_base=0.01,
            rpc_retry_cap=0.1,
            rpc_max_attempts=4,
        )
        policy = RetryPolicy.from_cluster(cfg)
        assert policy.rpc_timeout == 0.25
        assert policy.max_attempts == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(rpc_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultInjector:
    def test_dispatch_and_counters(self):
        obs = Observability.on()
        crashed, recovered = [], []
        injector = FaultInjector(obs).register(
            "provider", crashed.append, recovered.append
        )
        injector.crash("provider", "p0")
        injector.recover("provider", "p0")
        assert crashed == ["p0"] and recovered == ["p0"]
        assert obs.registry.value("faults.injected") == 1
        assert obs.registry.value("faults.recovered") == 1

    def test_unknown_component_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.crash("datanode", "d0")

    def test_non_recoverable_component(self):
        injector = FaultInjector().register("provider", lambda t: None)
        with pytest.raises(ValueError):
            injector.recover("provider", "p0")


class TestSchedulePlan:
    def test_des_scheduling_fires_at_plan_times(self):
        env = Environment()
        log = []
        injector = FaultInjector().register(
            "provider",
            lambda t: log.append(("crash", t, env.now)),
            lambda t: log.append(("recover", t, env.now)),
        )
        plan = (
            FaultPlan()
            .crash("provider", "p0", at=1.0)
            .crash("provider", "p1", at=2.0, duration=0.5)
        )
        assert schedule_plan(env, plan, injector) == 2
        env.run()
        assert log == [
            ("crash", "p0", 1.0),
            ("crash", "p1", 2.0),
            ("recover", "p1", 2.5),
        ]

    def test_relative_to_current_time(self):
        env = Environment()
        env.run(until=5.0)
        log = []
        injector = FaultInjector().register(
            "provider", lambda t: log.append(env.now)
        )
        schedule_plan(env, FaultPlan().crash("provider", "p0", at=1.0), injector)
        env.run()
        assert log == [6.0]


class TestThreadedFaultDriver:
    def test_replays_plan_on_wall_clock(self):
        log = []
        injector = FaultInjector().register(
            "tasktracker", lambda t: log.append(("crash", t)),
            lambda t: log.append(("recover", t)),
        )
        plan = FaultPlan().crash("tasktracker", "tt0", at=0.0, duration=0.02)
        driver = ThreadedFaultDriver(plan, injector, time_scale=1.0).start()
        driver.join(timeout=5)
        assert log == [("crash", "tt0"), ("recover", "tt0")]

    def test_stop_cancels_pending(self):
        log = []
        injector = FaultInjector().register(
            "tasktracker", lambda t: log.append(t)
        )
        plan = FaultPlan().crash("tasktracker", "tt0", at=60.0)
        driver = ThreadedFaultDriver(plan, injector).start()
        driver.stop()
        driver.join(timeout=5)
        assert log == []

    def test_rejects_bad_time_scale(self):
        with pytest.raises(ValueError):
            ThreadedFaultDriver(FaultPlan(), FaultInjector(), time_scale=0.0)

"""Unit tests for load-balanced page placement."""

import pytest

from repro.blobseer.provider_manager import ProviderManager
from repro.common.errors import ReplicationError

NAMES = [f"p{i}" for i in range(6)]


def test_allocates_distinct_replicas():
    pm = ProviderManager(NAMES, seed=1)
    [placement] = pm.allocate([100], replication=3)
    assert len(placement) == len(set(placement)) == 3


def test_load_balancing_across_pages():
    pm = ProviderManager(NAMES, seed=1)
    placements = pm.allocate([10] * 60, replication=1)
    loads = pm.load_snapshot()
    assert max(loads.values()) == min(loads.values())  # equal page sizes


def test_uneven_sizes_avoid_stacking_big_pages():
    pm = ProviderManager(NAMES, seed=1)
    sizes = [1000, 10, 10, 10, 10, 10, 1000, 10, 10, 10, 10, 10]
    pm.allocate(sizes, replication=1)
    # no provider receives both 1000-byte pages
    assert max(pm.load_snapshot().values()) <= 1010


def test_down_providers_excluded():
    pm = ProviderManager(NAMES, seed=1)
    pm.mark_down("p0")
    pm.mark_down("p1")
    for placement in pm.allocate([10] * 20, replication=2):
        assert "p0" not in placement and "p1" not in placement
    assert pm.down_snapshot() == ["p0", "p1"]


def test_replication_exceeding_alive_fails():
    pm = ProviderManager(NAMES[:2], seed=1)
    pm.mark_down("p0")
    with pytest.raises(ReplicationError):
        pm.allocate([10], replication=2)


def test_mark_up_readmits():
    pm = ProviderManager(NAMES, seed=1)
    pm.mark_down("p0")
    pm.mark_up("p0")
    assert pm.down_snapshot() == []


def test_validation():
    with pytest.raises(ValueError):
        ProviderManager([])
    with pytest.raises(ValueError):
        ProviderManager(["a", "a"])
    pm = ProviderManager(NAMES)
    with pytest.raises(ValueError):
        pm.allocate([0])
    with pytest.raises(ValueError):
        pm.allocate([10], replication=0)
    with pytest.raises(KeyError):
        pm.mark_down("ghost")


def test_deterministic_given_seed():
    a = ProviderManager(NAMES, seed=42).allocate([10] * 10)
    b = ProviderManager(NAMES, seed=42).allocate([10] * 10)
    assert a == b


def test_imbalance_gauge_equals_a_rescan_of_the_alive_providers():
    """The gauge is served from a running total and max; it must read,
    bit for bit, what rescanning the load table would — also while a
    provider is down (the scan's own turn) and after it is back (the
    running figures still count what it received before)."""
    from repro.obs import Observability

    obs = Observability()
    pm = ProviderManager(NAMES, seed=3, obs=obs)
    gauge = obs.registry.gauge("pm.imbalance")

    def rescan():
        down = set(pm.down_snapshot())
        loads = [v for n, v in pm.load_snapshot().items() if n not in down]
        return max(loads) / (sum(loads) / len(loads))

    sizes = [7, 4096, 64, 1, 999, 12345, 3]
    for step in range(40):
        if step == 10:
            pm.mark_down("p2")
        if step == 25:
            pm.mark_up("p2")
        pm.allocate(sizes[step % len(sizes) :], replication=1 + step % 3)
        assert gauge.value == rescan()
        assert pm._imbalance_locked() == rescan()

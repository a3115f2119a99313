"""Placement contracts crash repair and reproducibility lean on: the
seeded tie-break determinism regression and per-call exclusion."""

from repro.blobseer.provider_manager import ProviderManager

NAMES = [f"p{i}" for i in range(6)]


# -- tie-break determinism (regression) ---------------------------------------


def test_tiebreak_independent_of_input_order():
    """Equal-load choices must be a function of (seed, name set) alone —
    tie-breaking used to follow the order providers were listed in, so
    two deployments of the same cluster could place differently."""
    shuffled = ["p3", "p0", "p5", "p1", "p4", "p2"]
    a = ProviderManager(NAMES, seed=42)
    b = ProviderManager(shuffled, seed=42)
    assert a.allocate([10] * 30, replication=2) == b.allocate(
        [10] * 30, replication=2
    )


def test_tiebreak_deterministic_across_instances():
    a = ProviderManager(NAMES, seed=7).allocate([10] * 12, replication=1)
    b = ProviderManager(NAMES, seed=7).allocate([10] * 12, replication=1)
    assert a == b


def test_tiebreak_varies_with_seed():
    a = ProviderManager(NAMES, seed=1).allocate([10] * 12, replication=1)
    b = ProviderManager(NAMES, seed=2).allocate([10] * 12, replication=1)
    assert a != b  # astronomically unlikely to coincide


# -- exclusion (crash repair's allocate contract) ------------------------------


def test_exclude_bars_named_providers():
    pm = ProviderManager(NAMES, seed=1)
    for _ in range(5):
        [placement] = pm.allocate(
            [10], replication=2, exclude=("p0", "p1", "p2")
        )
        assert not set(placement) & {"p0", "p1", "p2"}
    # exclusion is per-call: they are allocatable again afterwards
    placements = pm.allocate([10] * 30, replication=1)
    assert {"p0", "p1", "p2"} <= {p[0] for p in placements}


def test_exclude_unknown_names_ignored():
    pm = ProviderManager(NAMES, seed=1)
    [placement] = pm.allocate([10], replication=1, exclude=("ghost",))
    assert placement[0] in NAMES

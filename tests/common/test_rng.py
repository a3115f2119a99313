"""Unit tests for deterministic RNG substreams."""

import numpy as np
import pytest

from repro.common.rng import derive_seed, substream, zipf_indices


def test_derive_seed_is_deterministic():
    assert derive_seed(7, "placement") == derive_seed(7, "placement")


def test_derive_seed_separates_paths():
    seeds = {
        derive_seed(7, "a"),
        derive_seed(7, "b"),
        derive_seed(8, "a"),
        derive_seed(7, "a", 1),
        derive_seed(7, "a", 2),
    }
    assert len(seeds) == 5


def test_substream_reproducible():
    a = substream(42, "x").integers(0, 1000, size=10)
    b = substream(42, "x").integers(0, 1000, size=10)
    assert (a == b).all()


def test_substream_independent():
    a = substream(42, "x").integers(0, 1000, size=10)
    b = substream(42, "y").integers(0, 1000, size=10)
    assert not (a == b).all()


def test_zipf_indices_skewed():
    rng = substream(0, "zipf")
    draws = zipf_indices(rng, n_items=100, count=10_000, skew=1.2)
    assert draws.min() >= 0 and draws.max() < 100
    counts = np.bincount(draws, minlength=100)
    # rank-0 item must be drawn far more often than the median item
    assert counts[0] > 5 * np.median(counts[counts > 0])


def test_zipf_rejects_bad_args():
    rng = substream(0, "zipf")
    with pytest.raises(ValueError):
        zipf_indices(rng, 0, 10)
    with pytest.raises(ValueError):
        zipf_indices(rng, 10, -1)
    with pytest.raises(ValueError):
        zipf_indices(rng, 10, 10, skew=0)

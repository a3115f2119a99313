"""Unit tests for deterministic RNG substreams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import Pcg64, derive_seed, stream, substream, zipf_indices

#: seeds at the edges of numpy's uint32 entropy words
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1]
SEEDS = st.one_of(
    st.sampled_from(EDGE_SEEDS),
    st.integers(0, 2**63 - 1),
    st.builds(derive_seed, st.integers(0, 2**32), st.text(max_size=8)),
)
BOUNDS = [1, 2, 3, 2**30, 2**32]


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


class TestPcg64MatchesNumpy:
    """``Pcg64(s)`` draws what ``numpy.random.default_rng(s)`` draws."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_every_permutation_size_at_edge_seeds(self, seed):
        for n in range(301):
            ours = Pcg64(seed).permutation(n)
            assert ours == np.random.default_rng(seed).permutation(n).tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 300))
    def test_permutation(self, seed, n):
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        assert ours.permutation(n) == theirs.permutation(n).tolist()
        # the state after the shuffle (buffered half included) matches too
        assert ours.integers(2**30) == theirs.integers(2**30)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, high=st.sampled_from(BOUNDS))
    def test_consecutive_integers(self, seed, high):
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        draws = [ours.integers(high) for _ in range(7)]
        assert draws == [int(theirs.integers(high)) for _ in range(7)]
        assert all(0 <= d < high for d in draws)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, highs=st.lists(st.integers(1, 2**32), min_size=5, max_size=12))
    def test_mixed_bounds_share_one_stream(self, seed, highs):
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        assert [ours.integers(h) for h in highs] == [
            int(theirs.integers(h)) for h in highs
        ]

    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1, 2**40])
    def test_integers_rejects_bounds_outside_the_32_bit_path(self, high):
        with pytest.raises(ValueError):
            Pcg64(0).integers(high)

    def test_stream_is_the_named_substream(self):
        assert stream(42, "x").permutation(50) == substream(42, "x").permutation(50).tolist()

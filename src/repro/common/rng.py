"""Deterministic random-number streams.

Every stochastic choice in the reproduction (page placement, input data
generation, simulated service-time jitter) draws from a named substream
derived from one experiment seed, so a run is reproducible bit-for-bit
while distinct subsystems stay statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a 63-bit child seed from a root seed and a path of names.

    Uses SHA-256 over the canonical path, so ``derive_seed(7, "placement")``
    is stable across processes and Python versions (unlike ``hash``).
    """
    payload = repr((int(root_seed),) + tuple(names)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def substream(root_seed: int, *names: str | int) -> np.random.Generator:
    """A NumPy generator seeded from the named substream."""
    return np.random.default_rng(derive_seed(root_seed, *names))


def zipf_indices(
    rng: np.random.Generator, n_items: int, count: int, skew: float = 1.1
) -> np.ndarray:
    """Draw *count* item indices in ``[0, n_items)`` with Zipfian skew.

    Used by the Last.fm-like workload generator: a few artists/tracks are
    played vastly more often than the tail, which is what makes the join's
    output (all key-match combinations) much larger than its input.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if skew <= 0:
        raise ValueError("skew must be positive")
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(n_items, size=count, p=weights)

"""Deterministic random-number streams.

Every stochastic choice in the reproduction (page placement, input data
generation, simulated service-time jitter) draws from a named substream
derived from one experiment seed, so a run is reproducible bit-for-bit
while distinct subsystems stay statistically independent.

Two kinds of stream come from one seed path:

* :func:`stream` returns a :class:`Pcg64`, an in-tree port of the only
  two draws the client stack makes (placement's tie-break permutation
  and the replica selector's phase). It needs no numpy, so the served
  process and the BSFS library never load it.
* :func:`substream` returns a ``numpy`` generator for the callers that
  draw arrays (workload generators, simulated disks, HDFS placement).
  numpy is imported on the first call, not when this module loads.

``Pcg64(s)`` reproduces ``numpy.random.default_rng(s)`` draw for draw
for the draws it ports, so both kinds agree on every shared seed and no
pinned series depends on which one a caller holds.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a 63-bit child seed from a root seed and a path of names.

    Uses SHA-256 over the canonical path, so ``derive_seed(7, "placement")``
    is stable across processes and Python versions (unlike ``hash``).
    """
    payload = repr((int(root_seed),) + tuple(names)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), after
# Melissa O'Neill's seed_seq_fe: a 4-word pool of uint32 hash mixing.
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: the 128-bit LCG multiplier of PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as four ints."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [seed & _MASK32]  # little-endian uint32 words; 0 -> [0]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state: 8 uint32 words cycled from the pool, read as 4
    # little-endian uint64s
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """numpy's ``default_rng(seed)``, ported for two draws.

    The state is numpy's PCG64 (a 128-bit LCG with the XSL-RR output),
    seeded through the same ``SeedSequence`` mixing, with numpy's
    buffered 32-bit draw: each 64-bit output serves two 32-bit draws,
    low half first. :meth:`permutation` and :meth:`integers` consume
    those 32-bit draws exactly as numpy's ``random_interval`` and
    Lemire bounded draw do, so every value and the state after it
    match numpy's (``tests/common/test_rng.py`` compares them).
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_state(int(seed))
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (self._inc + (s_hi << 64 | s_lo)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        #: the unused high half of the last 64-bit output, or ``None``
        self._spare: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        x = self._next64()
        self._spare = x >> 32
        return x & _MASK32

    def integers(self, high: int) -> int:
        """One uniform int in ``[0, high)``, for ``1 <= high <= 2**32``."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        if high == 1 << 32:
            return self._next32()
        m = self._next32() * high
        if m & _MASK32 < high:
            threshold = (1 << 32) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def permutation(self, n: int) -> List[int]:
        """A shuffled ``list(range(n))`` (Fisher–Yates, masked rejection)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def stream(root_seed: int, *names: str | int) -> Pcg64:
    """The named substream as an in-tree :class:`Pcg64` (no numpy)."""
    return Pcg64(derive_seed(root_seed, *names))


def substream(root_seed: int, *names: str | int) -> np.random.Generator:
    """A NumPy generator seeded from the named substream."""
    import numpy as np

    return np.random.default_rng(derive_seed(root_seed, *names))


def zipf_indices(
    rng: np.random.Generator, n_items: int, count: int, skew: float = 1.1
) -> np.ndarray:
    """Draw *count* item indices in ``[0, n_items)`` with Zipfian skew.

    Used by the Last.fm-like workload generator: a few artists/tracks are
    played vastly more often than the tail, which is what makes the join's
    output (all key-match combinations) much larger than its input.
    """
    import numpy as np

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

"""Last.fm-like synthetic dataset generator.

The paper's data-join input is "two files of 320 MB each; the input
files contain key-value pairs extracted from the datasets made public by
Last.fm"; joining them "generates 6.3 GB of output data" — roughly a
10× blow-up, which only happens when keys repeat in *both* files (every
(left, right) combination per key is emitted).

This generator reproduces those statistics synthetically: keys are
user/artist handles drawn Zipf-skewed from a bounded universe, values
are track-play records. Key multiplicity on both sides drives the
join's output multiplication; :func:`spec_for_scale` sizes the universe
for a target blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..common.fs import FileSystem
from ..common.rng import substream, zipf_indices

#: realistic-looking token pools
_ADJECTIVES = (
    b"red", b"blue", b"lazy", b"mad", b"neon", b"lost", b"loud", b"cold",
    b"pale", b"wild", b"grim", b"soft", b"dark", b"calm", b"odd", b"shy",
)
_NOUNS = (
    b"fox", b"wolf", b"echo", b"moon", b"star", b"wave", b"pixel", b"robot",
    b"rider", b"ghost", b"piano", b"comet", b"raven", b"tiger", b"cloud",
    b"ember",
)
_TRACKS = (
    b"intro", b"anthem", b"reprise", b"outro", b"ballad", b"groove",
    b"nocturne", b"sonata", b"refrain", b"overture", b"etude", b"chorale",
)


@dataclass(slots=True)
class LastFMSpec:
    """Shape of one generated dataset pair."""

    #: bytes per generated file (the paper: two files of 320 MB each)
    bytes_per_file: int
    #: distinct users (keys); smaller = more repetition = bigger join
    n_users: int = 2_000
    #: Zipf skew of user activity
    skew: float = 1.05
    #: experiment seed
    seed: int = 20100621


def _user_name(index: int) -> bytes:
    adj = _ADJECTIVES[index % len(_ADJECTIVES)]
    noun = _NOUNS[(index // len(_ADJECTIVES)) % len(_NOUNS)]
    return b"%s_%s_%04d" % (adj, noun, index)


def _play_value(rng_ints: np.ndarray, i: int) -> bytes:
    track = _TRACKS[int(rng_ints[i, 0]) % len(_TRACKS)]
    artist = _NOUNS[int(rng_ints[i, 1]) % len(_NOUNS)]
    plays = int(rng_ints[i, 2]) % 500 + 1
    return b"%s-%s:%d" % (artist, track, plays)


def generate_records(
    spec: LastFMSpec, which: str
) -> Iterator[Tuple[bytes, bytes]]:
    """Yield (user, play-record) pairs totalling ~``spec.bytes_per_file``.

    *which* ("left"/"right") selects an independent RNG substream so the
    two files share the key universe but not their sampling.
    """
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    rng = substream(spec.seed, "lastfm", which)
    # average record: key ~16B + tab + value ~20B + newline ≈ 40 bytes
    est_records = max(1, spec.bytes_per_file // 40)
    produced = 0
    batch = 8192
    while produced < spec.bytes_per_file:
        users = zipf_indices(rng, spec.n_users, batch, skew=spec.skew)
        ints = rng.integers(0, 2**31, size=(batch, 3))
        for i in range(batch):
            key = _user_name(int(users[i]))
            value = _play_value(ints, i)
            produced += len(key) + 1 + len(value) + 1
            yield key, value
            if produced >= spec.bytes_per_file:
                return


def write_dataset(
    fs: FileSystem, spec: LastFMSpec, left_path: str, right_path: str
) -> Tuple[int, int]:
    """Materialize both files on *fs*; returns their byte sizes."""
    sizes = []
    for which, path in (("left", left_path), ("right", right_path)):
        with fs.create(path, overwrite=True) as out:
            buf = bytearray()
            for key, value in generate_records(spec, which):
                buf += key + b"\t" + value + b"\n"
                if len(buf) >= 4 * 1024 * 1024:
                    out.write(bytes(buf))
                    buf.clear()
            if buf:
                out.write(bytes(buf))
            sizes.append(out.tell())
    return sizes[0], sizes[1]


def _sum_p_squared(n_users: int, skew: float) -> float:
    """Σ p_k² of the Zipf(n_users, skew) key distribution."""
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return float(np.sum(weights**2))


def users_for_blowup(
    bytes_per_file: int,
    target_blowup: float = 10.0,
    skew: float = 0.8,
    record_bytes: int = 60,
    input_record_bytes: int = 31,
) -> int:
    """Pick ``n_users`` so the join output is ~``target_blowup`` × input.

    Analytically: with N records per file drawn i.i.d. from the key
    distribution, E[Σ_k left(k)·right(k)] = N²·Σp², so
    ``blowup ≈ N·Σp²·record_bytes / (2·input_record_bytes)``. We binary
    search the user-universe size whose Σp² hits the target — this is
    how the experiments keep the paper's 2×320 MB → 6.3 GB shape at any
    scale.

    The default skew is sub-critical (0.8 < 1) because for skew > 1 the
    head key keeps a constant probability mass no matter how many users
    exist, putting a floor under the blow-up at small input sizes.
    """
    if target_blowup <= 0:
        raise ValueError("target_blowup must be positive")
    n_records = max(1, bytes_per_file // input_record_bytes)
    want = target_blowup * 2 * input_record_bytes / (n_records * record_bytes)
    lo, hi = 2, 50_000_000
    while lo < hi:
        mid = (lo + hi) // 2
        if _sum_p_squared(mid, skew) > want:
            lo = mid + 1  # too concentrated: need more users
        else:
            hi = mid
    return lo


def spec_for_scale(
    bytes_per_file: int, target_blowup: float = 10.0, seed: int = 20100621
) -> LastFMSpec:
    """A spec whose join output is ≈ *target_blowup* × the input volume —
    the knob experiments turn to keep the paper's 2×320 MB → 6.3 GB
    ratio when running scaled-down."""
    skew = 0.8
    n_users = users_for_blowup(bytes_per_file, target_blowup, skew=skew)
    return LastFMSpec(
        bytes_per_file=bytes_per_file, n_users=n_users, skew=skew, seed=seed
    )

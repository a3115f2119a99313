"""Generic workload generators for tests, examples and benchmarks.

Two families live here:

* **corpus generators** — deterministic input bytes for the Map/Reduce
  figures (text, key/value join fodder);
* **arrival processes** — *open-loop* request schedules for the scale
  experiments (fig8). Open-loop means arrival times are fixed up front,
  independent of how fast the system serves them — the methodology for
  "offered load" sweeps, since closed-loop clients implicitly throttle
  to the service rate and can never overload the system. Arrivals are
  plain arrays, not simulated processes: tens of thousands of flyweight
  clients are represented by integer ids on a shared schedule, and the
  experiment driver spawns one pooled protocol generator per in-flight
  op rather than one long-lived process per client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..common.rng import substream, zipf_indices

_WORDS = (
    b"data", b"append", b"chunk", b"page", b"version", b"reduce", b"map",
    b"blob", b"file", b"node", b"grid", b"cloud", b"stream", b"record",
    b"key", b"value", b"shuffle", b"merge", b"commit", b"publish",
)


def text_corpus(n_bytes: int, seed: int = 0, line_words: int = 8) -> bytes:
    """Deterministic whitespace-tokenized text of ~*n_bytes* bytes."""
    if n_bytes <= 0:
        raise ValueError("n_bytes must be positive")
    rng = substream(seed, "text-corpus")
    out = bytearray()
    while len(out) < n_bytes:
        idx = rng.integers(0, len(_WORDS), size=line_words)
        out += b" ".join(_WORDS[int(i)] for i in idx) + b"\n"
    return bytes(out[:n_bytes].rsplit(b"\n", 1)[0] + b"\n")


def kv_corpus(
    n_records: int, key_space: int = 100, seed: int = 0
) -> bytes:
    """Tab-separated key/value lines with repeated keys (join fodder)."""
    if n_records < 0:
        raise ValueError("n_records must be non-negative")
    rng = substream(seed, "kv-corpus")
    keys = rng.integers(0, key_space, size=n_records)
    vals = rng.integers(0, 10**6, size=n_records)
    lines = [
        b"k%05d\tv%06d" % (int(keys[i]), int(vals[i])) for i in range(n_records)
    ]
    return b"\n".join(lines) + (b"\n" if lines else b"")


@dataclass(slots=True, frozen=True)
class ArrivalProcess:
    """An open-loop request schedule: when each op arrives, and which
    flyweight client issues it.

    ``times`` is sorted ascending and starts at (or after) 0; ``clients``
    holds one integer client id per arrival. Iterating yields
    ``(time, client)`` pairs in arrival order.
    """

    times: np.ndarray
    clients: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.clients):
            raise ValueError("times and clients must have equal length")
        if len(self.times) and float(self.times[0]) < 0.0:
            raise ValueError("arrival times must be non-negative")
        if np.any(np.diff(self.times) < 0.0):
            raise ValueError("arrival times must be sorted ascending")

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        times = self.times
        clients = self.clients
        for i in range(len(times)):
            yield float(times[i]), int(clients[i])

    @property
    def distinct_clients(self) -> int:
        """How many distinct client ids appear in the schedule."""
        return int(np.unique(self.clients).size) if len(self.clients) else 0

    @property
    def duration(self) -> float:
        """Time of the last arrival (0.0 when empty)."""
        return float(self.times[-1]) if len(self.times) else 0.0

    def offered_load(self) -> float:
        """Mean arrival rate over the schedule's span, ops/s."""
        span = self.duration
        return len(self) / span if span > 0 else 0.0


def _round_robin_clients(
    n_arrivals: int, n_clients: int, rng: np.random.Generator
) -> np.ndarray:
    """Client ids for *n_arrivals* ops over *n_clients* flyweights.

    A seeded permutation repeated round-robin: every client id appears
    either ``floor(n_arrivals / n_clients)`` or one more time, so a
    schedule of at least ``n_clients`` arrivals is guaranteed to touch
    every client — the property the ≥20k-client scale claim rests on —
    while the permutation decorrelates client identity from arrival
    order.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    perm = rng.permutation(n_clients)
    reps = -(-n_arrivals // n_clients)  # ceil
    return np.tile(perm, reps)[:n_arrivals]


def poisson_arrivals(
    rate: float,
    duration: float,
    n_clients: int,
    seed: int = 0,
) -> ArrivalProcess:
    """A Poisson arrival process: *rate* ops/s offered for *duration*
    seconds across *n_clients* flyweight clients.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate`` (the
    memoryless process of many independent sources), truncated at
    *duration*. Deterministic per ``(seed, rate, duration)``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = substream(seed, "poisson-arrivals", repr(rate), repr(duration))
    # draw in one vectorized batch, padding ~5 sigma above the mean
    # count so a single draw almost always suffices
    expect = rate * duration
    batch = int(expect + 5.0 * max(expect, 1.0) ** 0.5) + 16
    gaps = rng.exponential(1.0 / rate, size=batch)
    times = np.cumsum(gaps)
    while len(times) and float(times[-1]) < duration:  # pragma: no cover
        extra = rng.exponential(1.0 / rate, size=batch)
        times = np.concatenate([times, float(times[-1]) + np.cumsum(extra)])
    times = times[times < duration]
    clients = _round_robin_clients(len(times), n_clients, rng)
    return ArrivalProcess(times=times, clients=clients)


def lastfm_arrivals(
    n_events: int,
    n_clients: int,
    duration: float,
    seed: int = 0,
    skew: float = 1.1,
) -> ArrivalProcess:
    """A synthetic Last.fm-style trace: *n_events* plays over *duration*
    seconds, with client activity Zipf-skewed (a few heavy listeners
    dominate, like the real dataset's per-user play counts).

    Arrival instants are uniform over the span — the aggregate of many
    independent user sessions — and the schedule is deterministic per
    seed.
    """
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = substream(seed, "lastfm-arrivals", n_events, n_clients)
    times = np.sort(rng.uniform(0.0, duration, size=n_events))
    clients = zipf_indices(rng, n_clients, n_events, skew=skew).astype(np.int64)
    return ArrivalProcess(times=times, clients=clients)

"""Disk service model.

Each simulated machine owns one disk with separate sustained read and
write bandwidths, served first-come-first-served (a single spindle /
single write stream, matching the commodity SATA disks of the Orsay
cluster). Reads optionally hit the OS page cache with a configurable
probability, in which case they bypass the spindle entirely — this is
how a 270-node run keeps read throughput above raw-disk speed, exactly
as on the real testbed where recently appended pages are still resident.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ..common.units import GiB
from .core import Environment, Event
from .resources import Resource


class Disk:
    """One FCFS disk with distinct read/write bandwidths."""

    #: service rate of a page-cache hit (memory copy), bytes/s
    CACHE_BANDWIDTH = 3.0 * GiB

    def __init__(
        self,
        env: Environment,
        read_bandwidth: float,
        write_bandwidth: float,
        cache_hit_ratio: float = 0.0,
        rng: Union[np.random.Generator, Callable[[], np.random.Generator], None] = None,
    ) -> None:
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if not (0.0 <= cache_hit_ratio <= 1.0):
            raise ValueError("cache_hit_ratio must be in [0, 1]")
        self.env = env
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.cache_hit_ratio = cache_hit_ratio
        # *rng* may be a ready generator or a zero-arg factory; factories
        # are materialized on the first draw. Building a numpy Generator
        # costs ~100µs, so eagerly constructing one per machine dominated
        # deployment setup on write-only workloads that never draw.
        self._rng: np.random.Generator | None = (
            rng if isinstance(rng, np.random.Generator) else None
        )
        self._rng_factory = rng if callable(rng) else None
        self._spindle = Resource(env, capacity=1)
        #: lifetime counters
        self.bytes_written = 0
        self.bytes_read = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            factory = self._rng_factory
            self._rng = factory() if factory else np.random.default_rng(0)
        return self._rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    # -- public API ----------------------------------------------------------

    def write(self, nbytes: int, notify: bool = True) -> Event:
        """Persist *nbytes*; the returned event fires when on disk.

        With ``notify=False`` no completion event is allocated (returns
        None) — for asynchronous persistence where nobody waits.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")

        def persisted() -> None:
            self.bytes_written += nbytes

        return self._spindle.round_trip(
            0.0, nbytes / self.write_bandwidth, persisted, notify=notify
        )

    def read(self, nbytes: int) -> Event:
        """Fetch *nbytes*; may be served from the page cache."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            done = Event(self.env)
            done.succeed(None)
            return done
        if self.rng.random() < self.cache_hit_ratio:
            # page-cache hit: a memory copy, no spindle involved
            self.cache_hits += 1
            done = Event(self.env)

            def copied() -> None:
                self.bytes_read += nbytes
                done.succeed(None)

            self.env.call_in(nbytes / self.CACHE_BANDWIDTH, copied)
            return done
        self.cache_misses += 1

        def fetched() -> None:
            self.bytes_read += nbytes

        return self._spindle.round_trip(
            0.0, nbytes / self.read_bandwidth, fetched
        )

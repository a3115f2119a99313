"""The provider manager — least-loaded page placement.

When a client writes pages it asks the provider manager for a list of
target providers; "the distribution of pages to providers aims at
achieving load-balancing". Each replica goes to the provider with the
fewest bytes allocated so far (seeded tie-break), served from a lazy
heap over the byte-load table. Failed providers are skipped; replicas
of one page always land on distinct providers.

Tie-break ranks are drawn from a seeded permutation over the *sorted*
provider names, so equal-load choices are deterministic for a given
seed regardless of the order the deployment listed its providers in.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import ReplicationError
from ..common.rng import stream
from ..obs import NULL_OBS, Observability


class ProviderManager:
    """Tracks provider load and allocates placement for new pages.

    Equal loads break by rank: the permutation over the sorted names
    that :func:`~repro.common.rng.stream` draws for ``(seed,
    "provider-manager")`` (numpy's ``default_rng`` draw for draw,
    without numpy), drawn once here and not kept.
    """

    def __init__(
        self,
        provider_names: Sequence[str],
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        if not provider_names:
            raise ValueError("need at least one provider")
        if len(set(provider_names)) != len(provider_names):
            raise ValueError("duplicate provider names")
        self._lock = threading.Lock()
        self._load: Dict[str, int] = {name: 0 for name in provider_names}
        #: sum and max of ``_load``, kept as it changes: loads are ints
        #: that only grow, so both stay exact and the imbalance readout
        #: need not rescan every provider per allocation
        self._load_total = 0
        self._load_max = 0
        self._down: set[str] = set()
        # seeded tie-break ranks, drawn over the sorted names so the
        # permutation is a function of (seed, name set) alone — feeding
        # the same providers in a different order must not change
        # placement (regression: tie-breaking used to follow the input
        # dict's iteration order)
        names = sorted(provider_names)
        order = stream(seed, "provider-manager").permutation(len(names))
        self._rank: Dict[str, int] = dict(zip(names, order))
        # lazy least-loaded heap: entries are (load, rank, name); an
        # entry is current iff its load matches the table (each push
        # happens on a strictly increasing load, so at most one entry
        # per name is ever current). Popping currents in heap order is
        # exactly the (load, rank) sort order, without sorting all
        # providers on every page placement.
        self._heap: List[Tuple[int, int, str]] = [
            (0, self._rank[n], n) for n in names
        ]
        heapq.heapify(self._heap)
        (obs or NULL_OBS).registry.gauge("pm.imbalance", source=self.imbalance)

    # -- membership ---------------------------------------------------------------

    def mark_down(self, name: str) -> None:
        """Exclude a provider from future allocations."""
        with self._lock:
            if name not in self._load:
                raise KeyError(name)
            self._down.add(name)

    def mark_up(self, name: str) -> None:
        """Re-admit a provider."""
        with self._lock:
            if name in self._down:
                self._down.discard(name)
                # its pre-failure heap entry may already be consumed;
                # push a fresh current one (duplicates are harmless,
                # the pick drops whichever it sees second)
                heapq.heappush(
                    self._heap, (self._load[name], self._rank[name], name)
                )

    # -- allocation ------------------------------------------------------------------

    def allocate(
        self, page_sizes: Sequence[int], replication: int = 1
    ) -> List[Tuple[str, ...]]:
        """Choose providers for each of a write's pages.

        Returns one tuple of *replication* distinct provider names per
        page, primary first.
        """
        if replication < 1:
            raise ValueError("replication must be >= 1")
        with self._lock:
            return self._allocate_locked(page_sizes, replication)

    def _allocate_locked(
        self,
        page_sizes: Sequence[int],
        replication: int,
    ) -> List[Tuple[str, ...]]:
        alive_count = len(self._load) - len(self._down)
        if alive_count < replication:
            raise ReplicationError(
                f"need {replication} distinct providers, "
                f"only {alive_count} alive"
            )
        load, rank, heap = self._load, self._rank, self._heap
        result: List[Tuple[str, ...]] = []
        for size in page_sizes:
            if size <= 0:
                raise ValueError("page size must be positive")
            chosen = self._pick(replication)
            for name in chosen:
                new_load = load[name] + size
                load[name] = new_load
                if new_load > self._load_max:
                    self._load_max = new_load
                heapq.heappush(heap, (new_load, rank[name], name))
            self._load_total += size * replication
            result.append(tuple(chosen))
        return result

    def imbalance(self) -> float:
        """Max/mean load over the alive providers: the ``pm.imbalance``
        gauge, computed when it is read."""
        with self._lock:
            return self._imbalance_locked()

    def _imbalance_locked(self) -> float:
        """Max/mean load over the alive providers (lock held by caller).
        The running total and max cover every provider, so they answer
        only while none is down."""
        if self._down:
            loads = [v for n, v in self._load.items() if n not in self._down]
            if not loads:
                return 1.0
            total, peak, count = sum(loads), max(loads), len(loads)
        else:
            total, peak, count = self._load_total, self._load_max, len(self._load)
        mean = total / count
        return peak / mean if mean > 0 else 1.0

    def _pick(self, replication: int) -> List[str]:
        """Providers for one page, primary first (lock held by caller)."""
        load, down, heap = self._load, self._down, self._heap
        chosen: List[str] = []
        while len(chosen) < replication:
            lo, _r, name = heapq.heappop(heap)
            if name in down or load[name] != lo or name in chosen:
                continue  # failed, stale, or duplicate entry: discard
            chosen.append(name)
        return chosen

    # -- introspection --------------------------------------------------------------

    def load_snapshot(self) -> Dict[str, int]:
        """Copy of the allocation table."""
        with self._lock:
            return dict(self._load)

    def down_snapshot(self) -> List[str]:
        """Currently excluded providers, sorted."""
        with self._lock:
            return sorted(self._down)

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
from ..common.rng import substream
from ..obs import NULL_OBS, Observability


class ProviderManager:
    """Tracks provider load and allocates placement for new pages."""

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
        obs = obs or NULL_OBS
        self._c_allocations = obs.registry.counter("pm.allocations")
        self._c_pages = obs.registry.counter("pm.pages_placed")
        self._c_bytes = obs.registry.counter("pm.bytes_placed")
        self._g_imbalance = obs.registry.gauge("pm.imbalance")
        #: the imbalance readout and the per-provider load gauges are
        #: O(providers) per allocation — worth computing only when
        #: somebody will read them
        self._track_imbalance = obs.registry.enabled
        self._g_load = {
            name: obs.registry.gauge(f"pm.load.{name}")
            for name in provider_names
        }
        self._lock = threading.Lock()
        self._load: Dict[str, int] = {name: 0 for name in provider_names}
        #: sum and max of ``_load``, kept as it changes: loads are ints
        #: that only grow, so both stay exact and the imbalance readout
        #: need not rescan every provider per allocation
        self._load_total = 0
        self._load_max = 0
        self._down: set[str] = set()
        self._rng = substream(seed, "provider-manager")
        # seeded tie-break ranks, drawn over the sorted names so the
        # permutation is a function of (seed, name set) alone — feeding
        # the same providers in a different order must not change
        # placement (regression: tie-breaking used to follow the input
        # dict's iteration order)
        names = sorted(provider_names)
        order = self._rng.permutation(len(names))
        self._rank: Dict[str, int] = {names[i]: int(order[i]) for i in range(len(names))}
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
        self,
        page_sizes: Sequence[int],
        replication: int = 1,
        prefer: Optional[str] = None,
        exclude: Sequence[str] = (),
    ) -> List[Tuple[str, ...]]:
        """Choose providers for each of a write's pages.

        Returns one tuple of *replication* distinct provider names per
        page, primary first. *prefer* (e.g. the client's own machine)
        wins the primary slot for the first page when it is alive and
        not overloaded relative to the cluster median — a mild locality
        bias that never defeats load balancing. *exclude* temporarily
        bars specific providers (crash repair uses it to avoid the
        copies a page already has).
        """
        if replication < 1:
            raise ValueError("replication must be >= 1")
        with self._lock:
            barred = [
                n for n in exclude if n in self._load and n not in self._down
            ]
            self._down.update(barred)
            try:
                return self._allocate_locked(page_sizes, replication, prefer)
            finally:
                self._down.difference_update(barred)
                # barred entries may have been popped-and-discarded as
                # "down" during the pick; restore current ones
                for name in barred:
                    heapq.heappush(
                        self._heap,
                        (self._load[name], self._rank[name], name),
                    )

    def _allocate_locked(
        self,
        page_sizes: Sequence[int],
        replication: int,
        prefer: Optional[str],
    ) -> List[Tuple[str, ...]]:
        alive_count = len(self._load) - len(self._down)
        if alive_count < replication:
            raise ReplicationError(
                f"need {replication} distinct providers, "
                f"only {alive_count} alive"
            )
        load, rank, heap = self._load, self._rank, self._heap
        result: List[Tuple[str, ...]] = []
        touched: set[str] = set()
        for i, size in enumerate(page_sizes):
            if size <= 0:
                raise ValueError("page size must be positive")
            chosen = self._pick(replication, prefer if i == 0 else None)
            for name in chosen:
                new_load = load[name] + size
                load[name] = new_load
                if new_load > self._load_max:
                    self._load_max = new_load
                heapq.heappush(heap, (new_load, rank[name], name))
            self._load_total += size * replication
            result.append(tuple(chosen))
            if self._track_imbalance:
                touched.update(chosen)
            self._c_pages.inc()
            self._c_bytes.inc(float(size) * replication)
        self._c_allocations.inc()
        if self._track_imbalance:
            self._g_imbalance.set(self._imbalance_locked())
            g_load = self._g_load
            for name in touched:
                g_load[name].set(float(load[name]))
        return result

    def _imbalance_locked(self) -> float:
        """Max/mean load over the alive providers (lock held by caller).
        The running total and max cover every provider, so they answer
        only while none is down or excluded."""
        if self._down:
            loads = [v for n, v in self._load.items() if n not in self._down]
            if not loads:
                return 1.0
            total, peak, count = sum(loads), max(loads), len(loads)
        else:
            total, peak, count = self._load_total, self._load_max, len(self._load)
        mean = total / count
        return peak / mean if mean > 0 else 1.0

    def _pick(self, replication: int, prefer: Optional[str]) -> List[str]:
        """Providers for one page, primary first (lock held by caller)."""
        load, down, heap = self._load, self._down, self._heap
        chosen: List[str] = []
        if prefer is not None and prefer in load and prefer not in down:
            loads = sorted(v for n, v in load.items() if n not in down)
            if load[prefer] <= loads[len(loads) // 2]:
                chosen.append(prefer)
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

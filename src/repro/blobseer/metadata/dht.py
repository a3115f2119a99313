"""The metadata providers' distributed hash table.

Tree nodes are spread over the metadata providers by a stable hash of
their key, so concurrent clients writing metadata for different versions
hit different providers most of the time — the decentralization that
keeps metadata from becoming the bottleneck the version manager would
otherwise be.

:class:`MetadataDHT` is the live store every runtime's tree algorithms
run against: *n* lock-free partitions, each get or put one dict
operation. Nodes are immutable and written once, so a reader never
synchronises with a writer. :class:`RecordingStore` wraps it and logs
the key of every access; the simulated runtime charges that log through
``DesEngine.charge_md``, the one place that computes
:func:`placement_hash` — the owning metadata provider — so the *exact*
metadata traffic of the real algorithms is what gets costed. The live
runtimes, whose DHT is in-process, never hash for placement.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional

from ...common.errors import VersionNotFoundError
from ...common.tally import Tally
from .segment_tree import NodeKey, TreeNode


def placement_hash(key_bytes: bytes, buckets: int) -> int:
    """Stable bucket index for a key (SHA-1, like real DHT placement)."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    digest = hashlib.sha1(key_bytes).digest()
    return int.from_bytes(digest[:8], "big") % buckets


class MetadataDHT:
    """In-process DHT over *n* metadata providers; takes no lock.

    A node lives in partition ``hash(key) % n`` — the builtin hash,
    deterministic for int-tuple keys and an order of magnitude cheaper
    than SHA-1. The partition is storage layout only (it bounds each
    dict's resize transient, and the pruner sweeps one at a time); the
    provider the simulator bills is :func:`placement_hash`'s, computed
    where it is charged. The ``gets``/``puts`` tallies are exact without
    a lock: each thread counts in its own cell.
    """

    def __init__(self, n_providers: int) -> None:
        if n_providers < 1:
            raise ValueError("need at least one metadata provider")
        self.n_providers = n_providers
        self._buckets: List[Dict[NodeKey, TreeNode]] = [
            {} for _ in range(n_providers)
        ]
        #: lifetime node reads (column 0) and writes (column 1)
        self._tally = Tally(2)

    @property
    def gets(self) -> List[int]:
        """Lifetime node reads, one entry per counting thread."""
        return self._tally.column(0)

    @property
    def puts(self) -> List[int]:
        """Lifetime node writes, one entry per counting thread."""
        return self._tally.column(1)

    def get_node(self, key: NodeKey) -> TreeNode:
        """Fetch a node; raises ``VersionNotFoundError`` when absent."""
        self._tally.cell()[0] += 1
        try:
            return self._buckets[hash(key) % self.n_providers][key]
        except KeyError:
            raise VersionNotFoundError(f"no tree node for {key}") from None

    def put_node(self, node: TreeNode) -> None:
        """Store a node (idempotent: nodes are immutable)."""
        self._tally.cell()[1] += 1
        key = node[0]
        self._buckets[hash(key) % self.n_providers][key] = node

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)


class RecordingStore:
    """Node-store wrapper that logs the key of every access.

    The simulated runtime runs the genuine tree algorithms against this
    wrapper, then charges each logged key one RPC at the simulated
    metadata provider that owns it (see ``Engine.charge_md``).
    """

    def __init__(self, inner: MetadataDHT) -> None:
        self.inner = inner
        self.log: List[NodeKey] = []

    def get_node(self, key: NodeKey) -> TreeNode:
        self.log.append(key)
        return self.inner.get_node(key)

    def put_node(self, node: TreeNode) -> None:
        self.log.append(node[0])
        self.inner.put_node(node)

    def take_log(self) -> List[NodeKey]:
        """Return and clear the key log."""
        log, self.log = self.log, []
        return log


class NodeCache:
    """Bounded LRU over tree nodes, shared across a client's operations.

    Tree nodes are immutable, so a cached node can never go stale — the
    only pressure is capacity. Hot root-reachable prefixes (the top of
    every version's path, revisited by each ``query_pages`` walk) stay
    resident, so repeated reads over stable prefixes stop re-charging
    the DHT.
    """

    def __init__(self, capacity: int, hit_counter=None, miss_counter=None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._nodes: "OrderedDict[NodeKey, TreeNode]" = OrderedDict()
        #: obs counters (``.inc()``), or None when metrics are off
        self._hits = hit_counter
        self._misses = miss_counter

    def get(self, key: NodeKey) -> Optional[TreeNode]:
        nodes = self._nodes
        node = nodes.get(key)
        if node is not None:
            try:
                nodes.move_to_end(key)
            except KeyError:
                # another thread's put evicted it since the lookup
                node = None
        if node is None:
            if self._misses is not None:
                self._misses.inc()
            return None
        if self._hits is not None:
            self._hits.inc()
        return node

    def put(self, node: TreeNode) -> None:
        nodes = self._nodes
        key = node[0]
        # re-inserting puts the key last in one step: a move_to_end after
        # the store could meet a key another thread just evicted
        nodes.pop(key, None)
        nodes[key] = node
        while len(nodes) > self.capacity:
            nodes.popitem(last=False)

    def __len__(self) -> int:
        return len(self._nodes)


class CachingStore:
    """Node-store view that serves gets from a :class:`NodeCache`.

    Wraps a (typically recording) store: cache hits never reach the
    inner store — no access is logged, so no RPC is charged — while
    misses fall through and populate the cache. Writes pass through
    *and* warm the cache (a just-built path is the hottest prefix of
    all).
    """

    def __init__(self, inner, cache: NodeCache) -> None:
        self.inner = inner
        self.cache = cache

    def get_node(self, key: NodeKey) -> TreeNode:
        node = self.cache.get(key)
        if node is None:
            node = self.inner.get_node(key)
            self.cache.put(node)
        return node

    def put_node(self, node: TreeNode) -> None:
        self.inner.put_node(node)
        self.cache.put(node)

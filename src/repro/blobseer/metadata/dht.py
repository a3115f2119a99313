"""The metadata providers' distributed hash table.

Tree nodes are spread over the metadata providers by a stable hash of
their key, so concurrent clients writing metadata for different versions
hit different providers most of the time — the decentralization that
keeps metadata from becoming the bottleneck the version manager would
otherwise be.

:class:`MetadataDHT` is the threaded-runtime implementation (per-bucket
dicts with locks). :class:`RecordingStore` wraps it and logs the owning
provider of every access; the simulated runtime replays that log as
charged RPCs against the simulated metadata-provider machines, so the
*exact* metadata traffic of the real algorithms is what gets costed.

Placement is a pure function of the key, recomputed where it is needed
(one SHA-1 per access that reaches the DHT) and remembered nowhere: the
DHT holds its buckets and nothing else per key.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from ...common.errors import VersionNotFoundError
from .segment_tree import NodeKey, TreeNode, key_bytes


def placement_hash(key_bytes: bytes, buckets: int) -> int:
    """Stable bucket index for a key (SHA-1, like real DHT placement)."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    digest = hashlib.sha1(key_bytes).digest()
    return int.from_bytes(digest[:8], "big") % buckets


class MetadataDHT:
    """Thread-safe in-process DHT over *n* metadata providers."""

    def __init__(self, n_providers: int) -> None:
        if n_providers < 1:
            raise ValueError("need at least one metadata provider")
        self.n_providers = n_providers
        self._buckets: List[Dict[NodeKey, TreeNode]] = [
            {} for _ in range(n_providers)
        ]
        self._locks = [threading.Lock() for _ in range(n_providers)]
        #: lifetime op counters per provider: (gets, puts)
        self.gets = [0] * n_providers
        self.puts = [0] * n_providers

    def owner(self, key: NodeKey) -> int:
        """Which metadata provider is responsible for *key*."""
        return placement_hash(key_bytes(key), self.n_providers)

    def get_node(self, key: NodeKey) -> TreeNode:
        """Fetch a node; raises ``VersionNotFoundError`` when absent."""
        return self._get_at(self.owner(key), key)

    def put_node(self, node: TreeNode) -> None:
        """Store a node (idempotent: nodes are immutable)."""
        self._put_at(self.owner(node[0]), node)

    def _get_at(self, idx: int, key: NodeKey) -> TreeNode:
        with self._locks[idx]:
            self.gets[idx] += 1
            try:
                return self._buckets[idx][key]
            except KeyError:
                raise VersionNotFoundError(f"no tree node for {key}") from None

    def _put_at(self, idx: int, node: TreeNode) -> None:
        with self._locks[idx]:
            self.puts[idx] += 1
            self._buckets[idx][node[0]] = node

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)


class RecordingStore:
    """Node-store wrapper that logs the owning provider of every access.

    The simulated runtime runs the genuine tree algorithms against this
    wrapper, then charges each logged owner one RPC at the corresponding
    simulated metadata-provider machine.
    """

    def __init__(self, inner: MetadataDHT) -> None:
        self.inner = inner
        self.log: List[int] = []

    def get_node(self, key: NodeKey) -> TreeNode:
        idx = self.inner.owner(key)
        self.log.append(idx)
        return self.inner._get_at(idx, key)

    def put_node(self, node: TreeNode) -> None:
        idx = self.inner.owner(node[0])
        self.log.append(idx)
        self.inner._put_at(idx, node)

    def take_log(self) -> List[int]:
        """Return and clear the owner log."""
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
        node = self._nodes.get(key)
        if node is None:
            if self._misses is not None:
                self._misses.inc()
            return None
        self._nodes.move_to_end(key)
        if self._hits is not None:
            self._hits.inc()
        return node

    def put(self, node: TreeNode) -> None:
        nodes = self._nodes
        key = node[0]
        nodes[key] = node
        nodes.move_to_end(key)
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

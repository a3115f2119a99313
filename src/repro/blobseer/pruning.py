"""Version pruning — reclaiming storage from old snapshots.

BlobSeer never overwrites data, so a long-lived BLOB accumulates
versions: every update leaves behind segment-tree nodes and stored
objects that only old snapshots reference. Pruning removes the versions
older than a retention point while keeping every retained version fully
readable — the subtlety being that retained trees *share* subtrees and
stored objects with pruned versions, so deletion must be reachability-
based, not version-number-based.

Algorithm (mark and sweep, per BLOB):

1. walk the segment trees of every retained version, collecting the set
   of reachable tree-node keys and referenced stored-object ids;
2. delete every tree node of this BLOB whose creating version is pruned
   *and* which is not reachable from a retained root;
3. delete every stored object of this BLOB not referenced by any
   reachable leaf (and its replica-directory entry, so crash repair
   never tries to copy an object that no longer exists);
4. drop the pruned version records from the version manager (reads of
   pruned versions then raise ``VersionNotFoundError``).

The sweep runs under the version manager's lock in the threaded runtime
(pruning a BLOB with in-flight updates is refused), which matches how a
centralized VM would coordinate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from ..common.errors import BlobError, VersionNotFoundError
from .metadata.segment_tree import NodeKey
from .pages import PageId

if TYPE_CHECKING:  # pragma: no cover
    from .client import BlobSeerService


@dataclass(slots=True)
class PruneReport:
    """What a prune pass reclaimed."""

    blob_id: int
    pruned_versions: List[int]
    nodes_deleted: int
    pages_deleted: int
    bytes_reclaimed: int


def collect_reachable(
    dht, roots: List[NodeKey]
) -> tuple[Set[NodeKey], Set[PageId]]:
    """Every tree node and stored object reachable from *roots*."""
    nodes: Set[NodeKey] = set()
    pages: Set[PageId] = set()
    stack = [r for r in roots if r is not None]
    while stack:
        key = stack.pop()
        if key in nodes:
            continue
        nodes.add(key)
        _, fragments, left, right = dht.get_node(key)
        if fragments is not None:
            for frag in fragments:
                pages.add(frag.page_id)
        else:
            if left is not None:
                stack.append(left)
            if right is not None:
                stack.append(right)
    return nodes, pages


def prune_blob(
    service: "BlobSeerService", blob_id: int, keep_from_version: int
) -> PruneReport:
    """Remove every version of *blob_id* older than *keep_from_version*.

    ``keep_from_version`` must be a published version; versions >= it
    (published or still pending) remain readable. Returns a report of
    what was reclaimed.
    """
    vm = service.version_manager
    with vm._turn:  # the VM coordinates pruning (single critical section)
        state = vm.core.blob(blob_id)
        if keep_from_version < 1 or keep_from_version > state.published:
            raise VersionNotFoundError(
                f"retention point v{keep_from_version} is not a published "
                f"version of blob {blob_id} (published={state.published})"
            )
        if state.next_version - 1 > state.published:
            raise BlobError(
                f"blob {blob_id} has in-flight updates; prune after they "
                "publish"
            )
        pruned = [
            v for v in state.versions if 0 < v < keep_from_version
        ]
        if not pruned:
            return PruneReport(blob_id, [], 0, 0, 0)

        retained_roots = [
            rec.root
            for v, rec in state.versions.items()
            if v >= keep_from_version and rec.root is not None
        ]
        reachable_nodes, reachable_pages = collect_reachable(
            service.dht, retained_roots
        )

        # sweep tree nodes created by pruned versions
        nodes_deleted = 0
        for bucket in service.dht._buckets:
            # a snapshot of the partition: writers keep inserting nodes
            # of new versions while it is swept (the DHT takes no lock)
            doomed = [
                key
                for key in list(bucket)
                if key[0] == blob_id
                and 0 < key[1] < keep_from_version
                and key not in reachable_nodes
            ]
            for key in doomed:
                del bucket[key]
            nodes_deleted += len(doomed)

        # sweep stored objects no retained leaf references
        pages_deleted = 0
        bytes_reclaimed = 0
        reachable_keys = {pid.key() for pid in reachable_pages}
        for provider in service.providers.values():
            for raw_key in provider.page_ids():
                if not raw_key.startswith(f"page/{blob_id}/".encode()):
                    continue
                if raw_key in reachable_keys:
                    continue
                bytes_reclaimed += len(provider.store.get(raw_key))
                provider.store.delete(raw_key)
                pages_deleted += 1
        # crash repair must not chase the objects just deleted
        directory = service.protocol.directory
        if directory is not None:
            directory.forget(
                pid
                for pid, _providers, _nbytes in directory.snapshot()
                if pid.blob_id == blob_id and pid not in reachable_pages
            )

        # drop the version records
        for v in pruned:
            del state.versions[v]

    return PruneReport(
        blob_id=blob_id,
        pruned_versions=sorted(pruned),
        nodes_deleted=nodes_deleted,
        pages_deleted=pages_deleted,
        bytes_reclaimed=bytes_reclaimed,
    )

"""Versioned distributed segment tree — BlobSeer's metadata organization.

For every published version of a BLOB there is a binary segment tree
over the BLOB's *page indices*. Each leaf records its page's
:data:`~repro.blobseer.pages.PageFragments`; inner nodes cover
power-of-two ranges of pages. All nodes are immutable and live in a
distributed hash table spread over the metadata providers; a new version
creates only the leaves it changed plus the O(log n) inner nodes on the
paths to the root, *sharing* every untouched subtree with previous
versions by pointing at their node keys. This is what lets BlobSeer
serve reads of old versions completely undisturbed while appenders
publish new versions — the versioning-based concurrency control the
paper's Figures 4 and 5 measure.

The functions here are pure tree algebra against an abstract key/value
``store``; both the threaded runtime (real dict-backed DHT) and the
simulated runtime (cost-charging DHT) drive them unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ...common.errors import VersionNotFoundError
from ..pages import PageFragments, overlay

#: Identity of one tree node: which version of which BLOB created it
#: and the page range ``[lo, hi)`` it covers, packed into one int by
#: :func:`node_key` (:func:`key_fields` unpacks it). An int is one
#: object — about 40 B for the small BLOB ids a deployment hands out,
#: against a 4-tuple's 72 B plus its ``lo``/``hi`` ints — it hashes and
#: compares in C, and the cyclic collector never tracks it.
NodeKey = int

#: One immutable tree node, ``(key, fragments, left, right)``, an exact
#: tuple. A leaf (span 1) carries the page's fragment list; an inner
#: node carries the keys of its children (``None`` where the half-range
#: holds no pages at all — possible only at the right fringe of the
#: tree), so the collector untracks it at its first collection. Build
#: one with :func:`tree_node`.
TreeNode = Tuple[
    NodeKey, Optional[PageFragments], Optional[NodeKey], Optional[NodeKey]
]

#: one 32-bit key field; the layout, high to low, is blob_id | lo | hi |
#: version, so the low bits — which pick a node's DHT partition — vary
#: with the version even where ``hi`` is a multiple of a large span
_MASK = 0xFFFF_FFFF


def node_key(blob_id: int, version: int, lo: int, hi: int) -> NodeKey:
    """The key of *blob_id*'s *version* node over pages ``[lo, hi)``.

    Every field must fit its 32 bits: a value that does not raises
    ``ValueError`` rather than alias another node's key."""
    if not (
        0 <= blob_id <= _MASK
        and 0 <= version <= _MASK
        and 0 <= lo <= _MASK
        and 0 <= hi <= _MASK
    ):
        raise ValueError(
            f"node key field out of range: blob {blob_id} v{version} "
            f"[{lo}, {hi})"
        )
    return blob_id << 96 | lo << 64 | hi << 32 | version


def key_fields(key: NodeKey) -> Tuple[int, int, int, int]:
    """``(blob_id, version, lo, hi)`` of *key*."""
    return key >> 96, key & _MASK, key >> 64 & _MASK, key >> 32 & _MASK


def key_bytes(key: NodeKey) -> bytes:
    """Stable byte form of *key*, used for DHT placement."""
    return b"tree/%d/%d/%d/%d" % key_fields(key)


def key_span(key: NodeKey) -> int:
    """Pages covered by *key*'s node; 1 for a leaf."""
    return (key >> 32 & _MASK) - (key >> 64 & _MASK)


def tree_node(
    key: NodeKey,
    fragments: Optional[PageFragments] = None,
    left: Optional[NodeKey] = None,
    right: Optional[NodeKey] = None,
) -> TreeNode:
    """The node at *key*, checked for shape: a leaf has fragments and no
    children, an inner node no fragments."""
    if key_span(key) == 1:
        if not fragments:
            raise ValueError(f"leaf {key_fields(key)} missing fragments")
        if left is not None or right is not None:
            raise ValueError(f"leaf {key_fields(key)} must not have children")
    elif fragments is not None:
        raise ValueError(f"inner node {key_fields(key)} must not carry a page")
    return (key, fragments, left, right)


class NodeStore(Protocol):
    """What the tree algorithms need from the metadata DHT."""

    def get_node(self, key: NodeKey) -> TreeNode: ...

    def put_node(self, node: TreeNode) -> None: ...


def capacity_for(n_pages: int) -> int:
    """Smallest power of two >= max(n_pages, 1) — the root's span."""
    if n_pages <= 1:
        return 1
    return 1 << (n_pages - 1).bit_length()


def build_version(
    store: NodeStore,
    blob_id: int,
    version: int,
    prev_root: Optional[NodeKey],
    prev_capacity: int,
    changes: Mapping[int, PageFragments],
    new_capacity: int,
) -> NodeKey:
    """Create the tree for *version* and return its root key.

    *changes* maps page index → the page's new fragment list; every
    other page is shared with the previous version's tree. When the BLOB grew past the
    previous capacity, the old root is grafted in as the leftmost
    descendant of the (larger) new root.

    The number of nodes written is ``O(|changes| + log(capacity))`` for
    the contiguous change-sets appends produce.
    """
    if not changes:
        raise ValueError("a version must change at least one page")
    if new_capacity < prev_capacity:
        raise ValueError("capacity cannot shrink")
    if any(i < 0 or i >= new_capacity for i in changes):
        raise ValueError("change index out of capacity")
    # the changed indices, sorted once: every _build call owns the slice
    # ``sorted_changes[i:j]`` that falls in its range, and one bisect at
    # the midpoint splits it between the two children
    sorted_changes = sorted(changes)
    grafting = prev_root is not None and new_capacity > prev_capacity
    node_key(blob_id, version, 0, new_capacity)  # every key of the build fits
    return _build(
        store,
        node_key(blob_id, version, 0, 0),
        changes,
        sorted_changes,
        prev_root,
        prev_capacity,
        0,
        new_capacity,
        _UNRESOLVED if grafting else prev_root,
        0,
        len(sorted_changes),
    )


def _build(
    store: NodeStore,
    base: NodeKey,
    changes: Mapping[int, PageFragments],
    sorted_changes: List[int],
    prev_root: Optional[NodeKey],
    prev_capacity: int,
    lo: int,
    hi: int,
    prev,
    i: int,
    j: int,
) -> NodeKey:
    """Write the node over ``[lo, hi)`` — a range that holds a change
    (``i < j``) or lies on the graft path (*prev* unresolved). *base*
    is the build's key over the empty range ``[0, 0)``.

    A module-level function that takes the build's constants as
    arguments: a nested function that calls itself is a reference cycle
    (function → cell → function), so every build would leave garbage
    only the cyclic collector can free.
    """
    key = base | lo << 64 | hi << 32  # node_key(blob_id, version, lo, hi)
    if hi - lo == 1:
        store.put_node(tree_node(key, changes[lo]))
        return key

    mid = (lo + hi) // 2
    prev_left: Optional[NodeKey]
    prev_right: Optional[NodeKey]
    if prev is None:
        prev_left = prev_right = None
    elif prev is _UNRESOLVED:
        # realign against the old tree's geometry
        if lo == 0 and mid == prev_capacity:
            prev_left, prev_right = prev_root, None
        elif lo == 0 and mid > prev_capacity:
            prev_left, prev_right = _UNRESOLVED, None
        elif lo == 0 and mid < prev_capacity:
            # old tree wider than this half: impossible, since the graft
            # path only ever *enlarges* ranges left-aligned at zero.
            raise AssertionError("graft path narrower than old tree")
        else:
            prev_left = prev_right = None
    else:
        _, _, prev_left, prev_right = store.get_node(prev)

    # descend only where something is written: an untouched child is
    # shared with the previous version by its key, with no call
    k = bisect_left(sorted_changes, mid, i, j)
    left, right = prev_left, prev_right
    if i < k or prev_left is _UNRESOLVED:
        left = _build(
            store,
            base,
            changes,
            sorted_changes,
            prev_root,
            prev_capacity,
            lo,
            mid,
            prev_left,
            i,
            k,
        )
    if k < j:
        right = _build(
            store,
            base,
            changes,
            sorted_changes,
            prev_root,
            prev_capacity,
            mid,
            hi,
            prev_right,
            k,
            j,
        )
    store.put_node(tree_node(key, None, left, right))
    return key


def query_pages(
    store: NodeStore, root: NodeKey, lo: int, hi: int
) -> Dict[int, PageFragments]:
    """Resolve fragment lists for every page index in ``[lo, hi)``.

    Missing leaves (pages never written) are simply absent from the
    result; callers decide whether a hole is an error. The empty range
    ``lo == hi`` (a zero-length read) is legitimate and resolves to
    ``{}`` without touching the store.
    """
    if lo < 0 or hi < lo:
        raise ValueError(f"bad page range [{lo}, {hi})")
    out: Dict[int, PageFragments] = {}
    if lo == hi:
        return out

    # an explicit stack, not a nested function that calls itself (a
    # reference cycle per read); pushing right before left keeps the
    # store accesses in pre-order, left subtree first
    get_node = store.get_node
    mask = _MASK
    stack: List[Optional[NodeKey]] = [root]
    while stack:
        key = stack.pop()
        if key is None:
            continue
        key_lo, key_hi = key >> 64 & mask, key >> 32 & mask
        if key_hi <= lo or key_lo >= hi:
            continue
        _, fragments, left, right = get_node(key)
        if key_hi - key_lo == 1:
            assert fragments is not None
            out[key_lo] = fragments
            continue
        stack.append(right)
        stack.append(left)
    return out


def merge_change_maps(
    maps: Sequence[Mapping[int, PageFragments]],
) -> Dict[int, PageFragments]:
    """Fold per-version change maps (in commit order) into one.

    Where two versions touch the same page, the later version's
    fragments are overlaid on the earlier one's — exactly what a reader
    of the later version would observe after sequential publication.
    Each map must be *self-consistent relative to its predecessors in
    the sequence*: a fragment whose page also carries older bytes (a
    boundary page) must either follow the fragments providing those
    bytes in an earlier map, or arrive pre-overlaid onto them (the map's
    tuple already containing the inherited fragments). Append batches
    satisfy this by construction — each append only writes bytes at and
    beyond its predecessor's size.
    """
    merged: Dict[int, PageFragments] = {}
    for changes in maps:
        for page, frags in changes.items():
            base = merged.get(page)
            if base is None:
                merged[page] = tuple(frags)
            else:
                for frag in frags:
                    base = overlay(base, frag)
                merged[page] = base
    return merged


def build_versions_batch(
    store: NodeStore,
    blob_id: int,
    batch: Sequence[Tuple[int, Mapping[int, PageFragments]]],
    prev_root: Optional[NodeKey],
    prev_capacity: int,
    new_capacity: int,
) -> NodeKey:
    """Publish a run of K queued versions as ONE tree build.

    *batch* is ``[(version, changes), ...]`` in commit order. The change
    maps are folded with :func:`merge_change_maps` and a single tree —
    keyed by the *last* version — is built over the union, so every
    shared inner-path node is written once per batch instead of once per
    version: ``O(Σ|changes| + log cap)`` node writes total.

    All K versions share the returned root. That is sound for *append*
    runs because each member only adds bytes at offsets ≥ its
    predecessor's size: a reader of an intermediate version clips at
    that version's recorded ``size``, and below that offset the merged
    fragment lists are byte-identical to the trees sequential
    publication would have produced (later overlays only replace ranges
    past the clip point). Overwrites do not have that property and must
    publish alone through :func:`build_version`.
    """
    if not batch:
        raise ValueError("empty publish batch")
    versions = [v for v, _ in batch]
    if versions != sorted(versions) or len(set(versions)) != len(versions):
        raise ValueError("batch versions must be distinct and ascending")
    merged = merge_change_maps([changes for _, changes in batch])
    return build_version(
        store,
        blob_id,
        versions[-1],
        prev_root,
        prev_capacity,
        merged,
        new_capacity,
    )


def iter_all_pages(
    store: NodeStore, root: NodeKey
) -> Iterator[Tuple[int, PageFragments]]:
    """Every (page index, fragment list) reachable from *root*, in order."""
    stack: List[Optional[NodeKey]] = [root]
    while stack:
        key = stack.pop()
        if key is None:
            continue
        _, fragments, left, right = store.get_node(key)
        if fragments is not None:
            yield key >> 64 & _MASK, fragments
            continue
        stack.append(right)
        stack.append(left)


class _Unresolved:
    """Sentinel: 'the old tree overlaps this range but with different
    geometry' — occurs only on the graft path when capacity grows."""

    __repr__ = lambda self: "<unresolved>"  # noqa: E731 # pragma: no cover


_UNRESOLVED = _Unresolved()

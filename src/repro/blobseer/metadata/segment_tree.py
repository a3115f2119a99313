"""Versioned distributed segment tree — BlobSeer's metadata organization.

For every published version of a BLOB there is a binary segment tree
over the BLOB's *page indices*. Each leaf records its page's
:data:`~repro.blobseer.pages.PageFragments`; inner nodes cover
power-of-two ranges of pages. All nodes are immutable and live in a
distributed hash table spread over the metadata providers; a new version
creates only the leaves it changed plus the O(log n) inner nodes on the
paths to the root, *sharing* every untouched subtree with previous
versions by naming their versions. Every version's tree is kept for
good, so a node is stored compactly (see :data:`NodeValue`): a leaf is
its fragment tuple, an inner node one int. This is what lets BlobSeer
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
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from ..pages import Fragment, PageFragments, overlay

#: Identity of one tree node: which version of which BLOB created it
#: and the page range ``[lo, hi)`` it covers, packed into one int by
#: :func:`node_key` (:func:`key_fields` unpacks it). An int is one
#: object — about 40 B for the small BLOB ids a deployment hands out,
#: against a 4-tuple's 72 B plus its ``lo``/``hi`` ints — it hashes and
#: compares in C, and the cyclic collector never tracks it.
NodeKey = int

#: What the DHT stores at a node's key — no key, no shape, nothing a
#: reader can rebuild from the key itself. A leaf (span 1) stores its
#: page's non-empty fragment tuple. An inner node over ``[lo, hi)`` stores
#: one int packing its children's *versions*, ``(left + 1) << 33 |
#: (right + 1)``, with 0 for a child whose half-range holds no pages
#: (possible only at the right fringe of the tree); a child's key is the
#: parent's blob, the half-range ``[lo, mid)`` or ``[mid, hi)`` with
#: ``mid = (lo + hi) // 2``, and that version. An int of that size is
#: about 32 B and never tracked by the cyclic collector, against 80 B
#: for a ``(key, fragments, left, right)`` tuple.
NodeValue = Union[PageFragments, int]

#: one 32-bit key field; the layout, high to low, is blob_id | lo | hi |
#: version, so the low bits — which pick a node's DHT partition — vary
#: with the version even where ``hi`` is a multiple of a large span
_MASK = 0xFFFF_FFFF

#: an inner node's right child field, the low 33 bits of its value
_CHILD_BITS = 33
_CHILD_MASK = (1 << _CHILD_BITS) - 1


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


class NodeStore(Protocol):
    """What the tree algorithms need from the metadata DHT."""

    def get_node(self, key: NodeKey) -> NodeValue: ...

    def put_node(self, key: NodeKey, value: NodeValue) -> None: ...


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
    other page is shared with the previous version's tree. When the BLOB
    grew past the previous capacity, the old root is grafted in as the
    leftmost descendant of the (larger) new root, named by its version:
    the tree still splits every range at its midpoint.

    The number of nodes written is ``O(|changes| + log(capacity))`` for
    the contiguous change-sets appends produce.
    """
    if not changes:
        raise ValueError("a version must change at least one page")
    if new_capacity < prev_capacity:
        raise ValueError("capacity cannot shrink")
    if new_capacity < 1 or new_capacity & (new_capacity - 1):
        # every span is then a power of two, which the walks rely on
        raise ValueError(f"capacity {new_capacity} is not a power of two")
    if any(i < 0 or i >= new_capacity for i in changes):
        raise ValueError("change index out of capacity")
    # the changed indices, sorted once: every _build call owns the slice
    # ``sorted_changes[i:j]`` that falls in its range, and one bisect at
    # the midpoint splits it between the two children
    sorted_changes = sorted(changes)
    root = node_key(blob_id, version, 0, new_capacity)  # every key fits
    if prev_root is None:
        prev = 0
    elif new_capacity > prev_capacity:
        prev = _UNRESOLVED
    else:
        prev = (prev_root & _MASK) + 1
    ctx = (
        store,
        blob_id << 96,
        version,
        changes,
        sorted_changes,
        prev_root,
        prev_capacity,
    )
    _build(ctx, 0, new_capacity, prev, 0, len(sorted_changes))
    return root


def _build(ctx: tuple, lo: int, hi: int, prev, i: int, j: int) -> None:
    """Write the build's node over ``[lo, hi)`` — a range that holds a
    change (``i < j``) or lies on the graft path (*prev* unresolved).
    *prev* is the previous version's node over the same range as a
    child field (its version plus one, 0 for none). *ctx* holds the
    build's constants: the store, the key bits above ``lo``, the
    version, the changes and their sorted indices, and the previous
    root and capacity.

    A module-level function that takes the build's constants as an
    argument: a nested function that calls itself is a reference cycle
    (function → cell → function), so every build would leave garbage
    only the cyclic collector can free.
    """
    store, blob, version, changes, sorted_changes, prev_root, prev_capacity = ctx
    key = blob | lo << 64 | hi << 32  # node_key(blob_id, 0, lo, hi)
    if hi - lo == 1:
        fragments = changes[lo]
        if not fragments:
            raise ValueError(f"leaf {key_fields(key | version)} missing fragments")
        store.put_node(key | version, fragments)
        return

    mid = (lo + hi) // 2
    if prev is _UNRESOLVED:
        # realign against the old tree's geometry: the old root is the
        # leftmost descendant whose range is exactly its capacity
        if lo == 0 and mid == prev_capacity:
            left, right = (prev_root & _MASK) + 1, 0
        elif lo == 0 and mid > prev_capacity:
            left, right = _UNRESOLVED, 0
        elif lo == 0 and mid < prev_capacity:
            # old tree wider than this half: impossible, since the graft
            # path only ever *enlarges* ranges left-aligned at zero.
            raise AssertionError("graft path narrower than old tree")
        else:
            left = right = 0
    elif prev:
        packed = store.get_node(key | prev - 1)
        left, right = packed >> _CHILD_BITS, packed & _CHILD_MASK
    else:
        left = right = 0

    # descend only where something is written: an untouched child is
    # shared with the previous version by its field, with no call
    k = bisect_left(sorted_changes, mid, i, j)
    if i < k or left is _UNRESOLVED:
        _build(ctx, lo, mid, left, i, k)
        left = version + 1
    if k < j:
        _build(ctx, mid, hi, right, k, j)
        right = version + 1
    store.put_node(key | version, left << _CHILD_BITS | right)


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
    # reference cycle per read). The walk carries each node's key less
    # its version (its *slot*), ``lo``, span and version; a child's slot
    # is its parent's with ``hi`` lowered or ``lo`` raised by half the
    # span. It follows the left child in place and stacks the right one
    # only when both overlap the range, so the store accesses stay in
    # pre-order, left subtree first, and every node read is one the
    # range needs.
    mask, child_mask = _MASK, _CHILD_MASK
    key_lo, key_hi, version = root >> 64 & mask, root >> 32 & mask, root & mask
    if key_hi <= lo or key_lo >= hi:
        return out
    get_node = store.get_node
    stack = [(root - version, key_lo, key_hi - key_lo, version)]
    while stack:
        slot, key_lo, span, version = stack.pop()
        while True:
            value = get_node(slot | version)
            if span == 1:
                out[key_lo] = value
                break
            span >>= 1
            mid = key_lo + span
            left = value >> _CHILD_BITS if mid > lo else 0
            right = value & child_mask if mid < hi else 0
            if left:
                if right:
                    stack.append((slot + (span << 64), mid, span, right - 1))
                slot -= span << 32
                version = left - 1
            elif right:
                slot += span << 64
                key_lo, version = mid, right - 1
            else:
                break
    return out


def merge_change_maps(
    maps: Iterable[Mapping[int, Fragment]],
    published: Optional[Mapping[int, PageFragments]] = None,
) -> Dict[int, PageFragments]:
    """Fold per-version raw change maps (in commit order) into one.

    Each map gives every page its version writes the one new fragment
    the writer shipped. Where two versions touch the same page, the
    later fragment is overlaid on the earlier ones — exactly what a
    reader of the later version would observe after sequential
    publication. *published* seeds the fold with the previously
    published fragments of boundary pages the first writes overlay; any
    other page a map touches must carry no older bytes than earlier maps
    provide. Append batches satisfy this by construction — each append
    only writes bytes at and beyond its predecessor's size, so only the
    first member's first page can inherit published bytes.
    """
    merged: Dict[int, PageFragments] = dict(published) if published else {}
    for changes in maps:
        for page, frag in changes.items():
            base = merged.get(page)
            merged[page] = (frag,) if base is None else overlay(base, frag)
    return merged


def build_versions_batch(
    store: NodeStore,
    blob_id: int,
    batch: Sequence[Tuple[int, Mapping[int, Fragment]]],
    prev_root: Optional[NodeKey],
    prev_capacity: int,
    new_capacity: int,
    published: Optional[Mapping[int, PageFragments]] = None,
) -> NodeKey:
    """Publish a run of K queued versions as ONE tree build.

    *batch* is ``[(version, changes), ...]`` in commit order, each
    *changes* a raw map of page to the version's one new fragment. The
    maps are folded with :func:`merge_change_maps` (over the
    *published* boundary fragments, if any) and a single tree — keyed by
    the *last* version — is built over the union, so every shared
    inner-path node is written once per batch instead of once per
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
    merged = merge_change_maps((changes for _, changes in batch), published)
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
) -> Iterable[Tuple[int, PageFragments]]:
    """Every (page index, fragment list) reachable from *root*, in order."""
    return query_pages(store, root, root >> 64 & _MASK, root >> 32 & _MASK).items()


class _Unresolved:
    """Sentinel: 'the old tree overlaps this range but with different
    geometry' — occurs only on the graft path when capacity grows."""

    __repr__ = lambda self: "<unresolved>"  # noqa: E731 # pragma: no cover


_UNRESOLVED = _Unresolved()

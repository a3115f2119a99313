"""Unit + property tests for the versioned distributed segment tree."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.metadata.dht import MetadataDHT, RecordingStore
from repro.blobseer.metadata.segment_tree import (
    _UNRESOLVED,
    build_version,
    build_versions_batch,
    capacity_for,
    iter_all_pages,
    key_bytes,
    key_fields,
    merge_change_maps,
    node_key,
    query_pages,
)
from repro.blobseer.pages import Fragment, fresh_page_id


def frag(tag="w", start=0, length=64):
    return (
        Fragment(
            start=start,
            length=length,
            page_id=fresh_page_id(1, tag),
            data_offset=0,
            providers=("p0",),
        ),
    )


def raw(changes):
    """A one-fragment change map as a writer ships it to a batch: page
    to its fragment, not to a fragment tuple."""
    return {p: f for p, (f,) in changes.items()}


def build(store, version, prev_root, prev_cap, indices, cap, tag=None):
    changes = {i: frag(tag or f"v{version}") for i in indices}
    return build_version(store, 1, version, prev_root, prev_cap, changes, cap)


def pack(left_version, right_version):
    """An inner node's stored value, written out from its documented
    layout: each child's version plus one (0 when absent), the left one
    in the bits above 33."""

    def field(v):
        return 0 if v is None else v + 1

    return field(left_version) << 33 | field(right_version)


def children(key, value):
    """The child keys an inner node's value names, rebuilt from the
    parent key's blob and half-ranges — the test's own decoder."""
    blob_id, _, lo, hi = key_fields(key)
    mid = (lo + hi) // 2
    left, right = value >> 33, value & (1 << 33) - 1
    return (
        node_key(blob_id, left - 1, lo, mid) if left else None,
        node_key(blob_id, right - 1, mid, hi) if right else None,
    )


def stored(store):
    """Every ``key -> value`` of a DHT."""
    return {k: v for bucket in store._buckets for k, v in bucket.items()}


class TestCapacity:
    def test_powers(self):
        assert capacity_for(1) == 1
        assert capacity_for(2) == 2
        assert capacity_for(3) == 4
        assert capacity_for(1000) == 1024
        assert capacity_for(0) == 1

    def test_edge_cases(self):
        # degenerate blobs: zero or one page both need a one-leaf tree
        assert capacity_for(0) == 1
        assert capacity_for(1) == 1
        # exact powers of two must NOT round up to the next power
        for exp in range(11):
            n = 1 << exp
            assert capacity_for(n) == n
            if n > 2:
                assert capacity_for(n - 1) == n
            assert capacity_for(n + 1) == 2 * n


class TestBuildAndQuery:
    def test_single_page_blob(self):
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, [0], 1)
        assert query_pages(store, root, 0, 1)[0][0].page_id.writer == "v1"

    def test_multi_page_query_range(self):
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, range(8), 8)
        result = query_pages(store, root, 2, 5)
        assert sorted(result) == [2, 3, 4]

    def test_missing_pages_absent(self):
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, [0, 1], 4)
        assert sorted(query_pages(store, root, 0, 4)) == [0, 1]

    def test_rejects_empty_changes(self):
        store = MetadataDHT(2)
        with pytest.raises(ValueError):
            build_version(store, 1, 1, None, 0, {}, 4)

    def test_rejects_out_of_capacity(self):
        store = MetadataDHT(2)
        with pytest.raises(ValueError):
            build(store, 1, None, 0, [4], 4)

    def test_rejects_a_capacity_not_a_power_of_two(self):
        """Every span of a tree then halves exactly, which is what lets
        a walk derive a child's range from its parent's."""
        store = MetadataDHT(2)
        for cap in (0, 3, 6, 12):
            with pytest.raises(ValueError, match="power of two"):
                build(store, 1, None, 0, [0], cap)
        assert len(store) == 0

    def test_rejects_shrinking_capacity(self):
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, range(4), 4)
        with pytest.raises(ValueError):
            build(store, 2, root, 4, [0], 2)

    def test_empty_range_returns_empty_without_rpcs(self):
        """Regression: a zero-length read (lo == hi) resolves to no
        pages and never touches the store — not even the root."""
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, range(4), 4)
        gets_before = sum(store.gets)
        assert query_pages(store, root, 2, 2) == {}
        assert query_pages(store, root, 0, 0) == {}
        assert query_pages(store, root, 4, 4) == {}
        assert sum(store.gets) == gets_before

    def test_rejects_bad_ranges(self):
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, range(4), 4)
        with pytest.raises(ValueError):
            query_pages(store, root, -1, 2)
        with pytest.raises(ValueError):
            query_pages(store, root, 3, 1)


class TestVersionSharing:
    def test_old_version_untouched(self):
        store = MetadataDHT(2)
        r1 = build(store, 1, None, 0, range(4), 4)
        r2 = build(store, 2, r1, 4, [2], 4)
        v1 = query_pages(store, r1, 0, 4)
        v2 = query_pages(store, r2, 0, 4)
        assert v1[2][0].page_id.writer == "v1"
        assert v2[2][0].page_id.writer == "v2"
        # unchanged pages are literally shared (same node keys)
        assert v1[0] == v2[0] and v1[3] == v2[3]

    def test_append_writes_few_nodes(self):
        """Appending one page creates O(log n) nodes, not O(n)."""
        store = MetadataDHT(1)
        root = build(store, 1, None, 0, range(256), 256)
        nodes_before = len(store)
        root2 = build(store, 2, root, 256, [256], 512)
        created = len(store) - nodes_before
        assert created <= 2 * 10  # ~log2(512) inner nodes + leaf
        assert sorted(query_pages(store, root2, 255, 257)) == [255, 256]

    def test_capacity_growth_grafts_old_tree(self):
        store = MetadataDHT(2)
        r1 = build(store, 1, None, 0, range(4), 4)
        # grow 4 -> 16 pages in one append
        r2 = build(store, 2, r1, 4, range(4, 16), 16)
        got = query_pages(store, r2, 0, 16)
        assert sorted(got) == list(range(16))
        assert got[0][0].page_id.writer == "v1"
        assert got[15][0].page_id.writer == "v2"
        # and v1 still reads clean
        assert sorted(query_pages(store, r1, 0, 4)) == [0, 1, 2, 3]

    def test_iter_all_pages_in_order(self):
        store = MetadataDHT(2)
        r1 = build(store, 1, None, 0, [0, 1, 5], 8)
        assert [i for i, _f in iter_all_pages(store, r1)] == [0, 1, 5]


class TestPacking:
    """An inner node's value at the edges of its layout: the version
    field's extremes, an absent child on either side, and the graft
    path when capacity grows."""

    @pytest.mark.parametrize("v0", [0, (1 << 32) - 2])
    def test_extreme_versions_round_trip(self, v0):
        """Versions 0 and 2**32 - 1 fit their 33-bit field (version plus
        one): a child of either is named, shared and read back."""
        store = MetadataDHT(2)
        v1 = v0 + 1
        r0 = build_version(store, 1, v0, None, 0, {0: frag("a"), 1: frag("b")}, 2)
        assert stored(store)[r0] == pack(v0, v0)
        r1 = build_version(store, 1, v1, r0, 2, {1: frag("c")}, 2)
        assert stored(store)[r1] == pack(v0, v1)
        assert children(r1, stored(store)[r1]) == (
            node_key(1, v0, 0, 1),
            node_key(1, v1, 1, 2),
        )
        got = query_pages(store, r1, 0, 2)
        assert [got[p][0].page_id.writer for p in (0, 1)] == ["a", "c"]
        assert [i for i, _ in iter_all_pages(store, r0)] == [0, 1]

    def test_the_top_version_sets_the_top_field_bit(self):
        top = (1 << 32) - 1
        store = MetadataDHT(1)
        root = build_version(store, 1, top, None, 0, {1: frag()}, 2)
        assert stored(store)[root] == pack(None, top) == 1 << 32
        root = build_version(store, 2, top, None, 0, {0: frag()}, 2)
        assert stored(store)[root] == pack(top, None) == 1 << 65

    def test_an_absent_child_on_either_side(self):
        store = MetadataDHT(2)
        # only page 1 of [0, 4): [0, 2) lacks its left child, the root
        # its right one
        root = build_version(store, 1, 3, None, 0, {1: frag()}, 4)
        nodes = stored(store)
        assert nodes[root] == pack(3, None)
        assert nodes[node_key(1, 3, 0, 2)] == pack(None, 3)
        assert children(root, nodes[root]) == (node_key(1, 3, 0, 2), None)
        assert list(query_pages(store, root, 0, 4)) == [1]
        assert query_pages(store, root, 2, 4) == {}
        assert query_pages(store, root, 0, 1) == {}

    def test_graft_when_capacity_doubles(self):
        """The old root becomes the new root's left child by its version
        alone: its key is rebuilt from the new root's blob and ``[0,
        mid)``, which is exactly the old capacity."""
        store = MetadataDHT(2)
        r1 = build_version(store, 1, 1, None, 0, {0: frag("a"), 1: frag("b")}, 2)
        r2 = build_version(store, 1, 2, r1, 2, {2: frag("c")}, 4)
        nodes = stored(store)
        assert nodes[r2] == pack(1, 2)
        assert children(r2, nodes[r2]) == (r1, node_key(1, 2, 2, 4))
        assert nodes[node_key(1, 2, 2, 4)] == pack(2, None)
        # two more doublings in one build: the graft path is rebuilt at
        # this version down to the old root
        r3 = build_version(store, 1, 3, r2, 4, {15: frag("d")}, 16)
        nodes = stored(store)
        assert nodes[r3] == pack(3, 3)
        assert nodes[node_key(1, 3, 0, 8)] == pack(2, None)
        got = query_pages(store, r3, 0, 16)
        assert {p: f[0].page_id.writer for p, f in got.items()} == {
            0: "a", 1: "b", 2: "c", 15: "d"
        }


class TestNodeKey:
    def test_key_bytes_distinct(self):
        keys = {
            key_bytes(node_key(1, 1, 0, 4)),
            key_bytes(node_key(1, 2, 0, 4)),
            key_bytes(node_key(2, 1, 0, 4)),
            key_bytes(node_key(1, 1, 0, 2)),
        }
        assert len(keys) == 4

    def test_span_and_leaf(self):
        _, _, lo, hi = key_fields(node_key(1, 1, 4, 8))
        assert hi - lo == 4
        _, _, lo, hi = key_fields(node_key(1, 1, 3, 4))
        assert hi - lo == 1

    def test_keys_and_inner_values_are_ints_and_leaves_their_tuples(self):
        """What keeps the tree small and off the collector's lists: a key
        and an inner node's value are ints, never tracked, and a leaf's
        value is the very fragment tuple the build was given — no node
        wrapper, key or shape rides along with it."""
        store = MetadataDHT(2)
        changes = {p: frag(f"p{p}") for p in (0, 1, 2)}
        root = build_version(store, 1, 1, None, 0, changes, 4)
        nodes = stored(store)
        assert len(nodes) == 3 + 3  # three leaves, [0, 2), [2, 4), [0, 4)
        for key, value in nodes.items():
            assert type(key) is int
            _, version, lo, hi = key_fields(key)
            assert version == 1
            if hi - lo == 1:
                assert value is changes[lo]
            else:
                assert type(value) is int and not gc.is_tracked(value)
        assert nodes[root] == pack(1, 1)
        assert nodes[node_key(1, 1, 2, 4)] == pack(1, None)


_FIELD = st.integers(min_value=0, max_value=(1 << 32) - 1)


@settings(max_examples=200, deadline=None)
@given(blob_id=_FIELD, version=_FIELD, lo=_FIELD, hi=_FIELD)
def test_node_key_encodes_its_fields(blob_id, version, lo, hi):
    """The int key round-trips its fields, spans ``hi - lo``, and has the
    byte form of the ``(blob_id, version, lo, hi)`` tuple it replaced —
    so the simulator's placement hash, and every DES charge, is the same
    as with tuple keys."""
    key = node_key(blob_id, version, lo, hi)
    assert key_fields(key) == (blob_id, version, lo, hi)
    assert key_bytes(key) == b"tree/%d/%d/%d/%d" % (blob_id, version, lo, hi)


@settings(max_examples=100, deadline=None)
@given(
    fields=st.tuples(_FIELD, _FIELD, _FIELD, _FIELD),
    which=st.integers(min_value=0, max_value=3),
    bad=st.one_of(
        st.integers(min_value=1 << 32, max_value=1 << 80),
        st.integers(max_value=-1, min_value=-(1 << 40)),
    ),
)
def test_node_key_rejects_fields_that_do_not_fit(fields, which, bad):
    """A field out of range raises instead of spilling into its
    neighbour's bits (where it would alias another node's key)."""
    args = list(fields)
    args[which] = bad
    with pytest.raises(ValueError):
        node_key(*args)


class TestTreeNodeShape:
    def test_leaf_needs_fragments_and_no_children(self):
        """A leaf's value is its non-empty fragment tuple and nothing
        else: no child field rides along with it."""
        store = MetadataDHT(1)
        with pytest.raises(ValueError, match="missing fragments"):
            build_version(store, 1, 1, None, 0, {0: frag(), 1: ()}, 2)
        assert len(store) == 1  # page 0's leaf; nothing above the empty one
        leaf_frags = frag()
        build_version(store, 1, 2, None, 0, {0: leaf_frags}, 1)
        assert stored(store)[node_key(1, 2, 0, 1)] is leaf_frags

    def test_inner_node_carries_no_page(self):
        """Every inner node's value is one int naming its children — a
        page's fragments are found only at span 1."""
        store = MetadataDHT(2)
        root = build(store, 1, None, 0, [0, 3, 5], 8)
        for key, value in stored(store).items():
            _, _, lo, hi = key_fields(key)
            assert (type(value) is int) == (hi - lo > 1)
        assert stored(store)[root] == pack(1, 1)

    def test_a_build_too_wide_for_its_keys_is_refused(self):
        with pytest.raises(ValueError):
            build(MetadataDHT(1), 1, None, 0, [0], 1 << 33)


@settings(max_examples=40, deadline=None)
@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # first changed page
            st.integers(min_value=1, max_value=12),  # pages changed
        ),
        min_size=1,
        max_size=12,
    )
)
def test_version_history_matches_array_oracle(updates):
    """Each version's full page map equals a naive dict-of-dicts oracle,
    for arbitrary contiguous update sequences (append-ish and overwrite)."""
    store = MetadataDHT(3)
    oracle: dict[int, str] = {}
    snapshots = []
    root = None
    cap = 0
    max_page = 0
    for v, (start, count) in enumerate(updates, start=1):
        start = min(start, max_page)  # no holes, like the version manager
        pages = list(range(start, start + count))
        max_page = max(max_page, pages[-1] + 1)
        new_cap = capacity_for(max_page)
        root = build(store, v, root, cap, pages, new_cap, tag=f"v{v}")
        cap = new_cap
        for p in pages:
            oracle[p] = f"v{v}"
        snapshots.append((root, cap, dict(oracle)))
    # every historical snapshot still reads exactly its own state
    for root, cap, expected in snapshots:
        got = {
            i: frags[0].page_id.writer
            for i, frags in query_pages(store, root, 0, cap).items()
        }
        assert got == expected


def reference_build_version(
    store, blob_id, version, prev_root, prev_capacity, changes, new_capacity
):
    """Test-only oracle: the build as it was before it pruned its
    recursion — it calls into *every* child and lets the untouched ones
    return their previous key. It walks child *keys*, decoding a stored
    inner value with the test's own :func:`children` and writing one
    with :func:`pack`. Same arguments, same result, and (the point) the
    same store accesses in the same order."""

    def build(lo, hi, prev):
        touched = any(lo <= i < hi for i in changes)
        if not touched and prev is not _UNRESOLVED:
            return prev
        key = node_key(blob_id, version, lo, hi)
        if hi - lo == 1:
            if not touched:
                return None
            store.put_node(key, changes[lo])
            return key
        mid = (lo + hi) // 2
        if prev is None:
            prev_left = prev_right = None
        elif prev is _UNRESOLVED:
            assert lo == 0 and mid >= prev_capacity
            prev_left = prev_root if mid == prev_capacity else _UNRESOLVED
            prev_right = None
        else:
            prev_left, prev_right = children(prev, store.get_node(prev))
        left = build(lo, mid, prev_left)
        right = build(mid, hi, prev_right)
        store.put_node(
            key,
            pack(*(None if k is None else key_fields(k)[1] for k in (left, right))),
        )
        return key

    if prev_root is not None and new_capacity > prev_capacity:
        return build(0, new_capacity, _UNRESOLVED)
    return build(0, new_capacity, prev_root)


class _OpLog:
    """Node store that notes ``(op, key)`` on the way to a recording
    store — the owner log alone cannot tell a get from a put."""

    def __init__(self, n_providers):
        self.dht = MetadataDHT(n_providers)
        self.rec = RecordingStore(self.dht)
        self.ops = []

    def get_node(self, key):
        self.ops.append(("get", key))
        return self.rec.get_node(key)

    def put_node(self, key, value):
        self.ops.append(("put", key))
        self.rec.put_node(key, value)


@settings(max_examples=150, deadline=None)
@given(
    history=st.lists(
        st.tuples(
            # changed pages: any subset, contiguous or not
            st.sets(st.integers(min_value=0, max_value=70), min_size=1, max_size=9),
            # extra doublings of the capacity beyond what the pages need
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_pruned_build_equals_the_full_recursion(history):
    """The pruned build stores node for node the tree the full recursion
    stores, through the same store accesses in the same order — so the
    owner log the DES charges (and with it every pinned ``sim_events``)
    cannot differ. Covers sparse change sets, capacity growth by several
    levels with an untouched graft path, and chains of versions."""
    new, ref = _OpLog(3), _OpLog(3)
    root = ref_root = None
    cap = 0
    for version, (pages, extra) in enumerate(history, start=1):
        changes = {p: frag(f"v{version}") for p in pages}
        new_cap = max(cap, capacity_for(max(pages) + 1)) << extra
        root = build_version(new, 1, version, root, cap, changes, new_cap)
        ref_root = reference_build_version(
            ref, 1, version, ref_root, cap, changes, new_cap
        )
        cap = new_cap
        assert root == ref_root
        assert new.ops == ref.ops
        assert new.rec.log == ref.rec.log
    assert new.dht._buckets == ref.dht._buckets
    assert (new.dht.gets, new.dht.puts) == (ref.dht.gets, ref.dht.puts)


class TestNodeWriteCounts:
    """Pin the build's node-write complexity: O(|changes| + log cap)."""

    @pytest.mark.parametrize("cap", [64, 256, 1024])
    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_fresh_tree_contiguous_run(self, cap, count):
        store = MetadataDHT(1)
        build(store, 1, None, 0, range(count), cap)
        log2 = cap.bit_length() - 1
        assert sum(store.puts) <= 2 * count + 2 * log2 + 2

    @pytest.mark.parametrize("cap", [256, 1024])
    def test_incremental_append_run(self, cap):
        """Appending a short run to a full tree rewrites only the run's
        subtree plus one root-to-run path — not O(cap) nodes."""
        store = MetadataDHT(1)
        half = cap // 2
        root = build(store, 1, None, 0, range(half), cap)
        puts_before = sum(store.puts)
        count = 5
        build(store, 2, root, cap, range(half, half + count), cap)
        created = sum(store.puts) - puts_before
        log2 = cap.bit_length() - 1
        assert created <= 2 * count + 2 * log2 + 2


@settings(max_examples=40, deadline=None)
@given(
    cap_exp=st.integers(min_value=0, max_value=9),
    starts=st.lists(
        st.integers(min_value=0, max_value=511), min_size=1, max_size=8
    ),
    counts=st.lists(
        st.integers(min_value=1, max_value=24), min_size=8, max_size=8
    ),
)
def test_write_count_stays_within_bound(cap_exp, starts, counts):
    """Every build writes at most 2|changes| + 2 log2(cap) + 2 nodes, for
    arbitrary (not only contiguous) change sets under random histories."""
    cap = 1 << cap_exp
    store = MetadataDHT(1)
    root = None
    prev_cap = 0
    for v, (start, count) in enumerate(zip(starts, counts), start=1):
        pages = sorted({min(start + k, cap - 1) for k in range(count)})
        puts_before = sum(store.puts)
        root = build(store, v, root, prev_cap, pages, cap, tag=f"v{v}")
        prev_cap = cap
        created = sum(store.puts) - puts_before
        assert created <= 2 * len(pages) + 2 * cap_exp + 2


class TestBatchBuild:
    def test_rejects_empty_batch(self):
        store = MetadataDHT(1)
        with pytest.raises(ValueError):
            build_versions_batch(store, 1, [], None, 0, 4)

    def test_rejects_unordered_versions(self):
        store = MetadataDHT(1)
        batch = [(2, {0: frag("v2")[0]}), (1, {1: frag("v1")[0]})]
        with pytest.raises(ValueError):
            build_versions_batch(store, 1, batch, None, 0, 4)
        batch = [(1, {0: frag("v1")[0]}), (1, {1: frag("v1b")[0]})]
        with pytest.raises(ValueError):
            build_versions_batch(store, 1, batch, None, 0, 4)

    def test_merge_overlays_shared_boundary_page(self):
        """Two batch members sharing a page: the later one's fragment is
        overlaid, so a reader sees both byte ranges."""
        (a,) = frag("m1", start=0, length=32)
        (b,) = frag("m2", start=32, length=32)
        merged = merge_change_maps([{0: a}, {0: b}])
        assert merged == {0: (a, b)}
        # full replacement: the later fragment covers the earlier one
        (c,) = frag("m3", start=0, length=64)
        assert merge_change_maps([{0: a}, {0: c}]) == {0: (c,)}

    def test_merge_overlays_published_boundary_fragments(self):
        """The published fragments of the first member's boundary page
        seed the fold: its first fragment is overlaid on them, and the
        seed map itself is left as it was."""
        (old,) = frag("v0", start=0, length=40)
        (a,) = frag("m1", start=32, length=16)
        (b,) = frag("m2", start=48, length=16)
        published = {0: (old,)}
        merged = merge_change_maps([{0: a, 1: a}, {0: b}], published)
        assert merged == {0: (old.clip(0, 32), a, b), 1: (a,)}
        assert published == {0: (old,)}

    def test_batch_equals_sequential_for_append_run(self):
        """One batched build must read back exactly like K sequential
        builds, clipped at each member's visible range."""
        seq_store = MetadataDHT(1)
        batch_store = MetadataDHT(1)
        members = [(1, range(0, 2)), (2, range(2, 3)), (3, range(3, 7))]
        maps = [
            {p: frag(f"v{v}") for p in pages} for v, pages in members
        ]
        # sequential: one tree per version
        seq_roots = []
        root, cap = None, 0
        for (v, pages), changes in zip(members, maps):
            new_cap = capacity_for(max(pages) + 1)
            root = build_version(
                seq_store, 1, v, root, cap, changes, new_cap
            )
            cap = new_cap
            seq_roots.append(root)
        # batched: one tree for all three, keyed by the last version
        batch = [(v, raw(m)) for (v, _), m in zip(members, maps)]
        batch_root = build_versions_batch(batch_store, 1, batch, None, 0, 8)
        assert key_fields(batch_root)[1] == 3
        for (v, pages), seq_root in zip(members, seq_roots):
            visible = max(pages) + 1
            seq = query_pages(seq_store, seq_root, 0, visible)
            got = query_pages(batch_store, batch_root, 0, visible)
            assert got == seq

    def test_batch_writes_shared_paths_once(self):
        """The batch's inner-path nodes are written once, not once per
        member — fewer total puts than sequential publication."""
        cap = 256
        seq_store = MetadataDHT(1)
        batch_store = MetadataDHT(1)
        members = [(v, [v - 1]) for v in range(1, 9)]  # 8 one-page appends
        maps = [{p: frag(f"v{v}") for p in pages} for v, pages in members]
        root, prev = None, 0
        for (v, _pages), changes in zip(members, maps):
            root = build_version(seq_store, 1, v, root, prev, changes, cap)
            prev = cap
        batch = [(v, raw(m)) for (v, _), m in zip(members, maps)]
        build_versions_batch(batch_store, 1, batch, None, 0, cap)
        assert sum(batch_store.puts) < sum(seq_store.puts) / 2


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=12
    ),
    splits=st.lists(st.booleans(), min_size=11, max_size=11),
)
def test_batched_publication_matches_sequential_oracle(counts, splits):
    """Randomized append histories, cut into random batches: every
    version read from the batched trees (clipped at its own visible
    range) matches both the sequential trees and a dict oracle."""
    # partition the append run at random points into publish batches
    batches, current = [], []
    for i, count in enumerate(counts):
        current.append((i + 1, count))
        if i < len(splits) and splits[i]:
            batches.append(current)
            current = []
    if current:
        batches.append(current)

    seq_store = MetadataDHT(3)
    batch_store = MetadataDHT(3)
    oracle: dict[int, str] = {}
    per_version: dict[int, tuple] = {}  # version -> (visible, oracle copy)
    seq_roots: dict[int, object] = {}
    next_page = 0
    seq_root, seq_cap = None, 0
    batch_root, batch_cap = None, 0
    for batch in batches:
        maps = []
        for v, count in batch:
            pages = list(range(next_page, next_page + count))
            next_page += count
            maps.append({p: frag(f"v{v}") for p in pages})
            for p in pages:
                oracle[p] = f"v{v}"
            per_version[v] = (next_page, dict(oracle))
        new_cap = capacity_for(next_page)
        # sequential: one tree per member version
        for (v, _count), changes in zip(batch, maps):
            visible, _ = per_version[v]
            cap_v = capacity_for(visible)
            seq_root = build_version(
                seq_store, 1, v, seq_root, seq_cap, changes, cap_v
            )
            seq_cap = cap_v
            seq_roots[v] = seq_root
        # batched: one tree for the whole run
        batch_root = build_versions_batch(
            batch_store,
            1,
            [(v, raw(m)) for (v, _), m in zip(batch, maps)],
            batch_root,
            batch_cap,
            new_cap,
        )
        batch_cap = new_cap
        for v, _count in batch:
            visible, snapshot = per_version[v]
            got = {
                i: frags[0].page_id.writer
                for i, frags in query_pages(
                    batch_store, batch_root, 0, visible
                ).items()
            }
            assert got == snapshot
            assert got == {
                i: frags[0].page_id.writer
                for i, frags in query_pages(
                    seq_store, seq_roots[v], 0, visible
                ).items()
            }

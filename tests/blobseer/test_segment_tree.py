"""Unit + property tests for the versioned distributed segment tree."""

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
    key_span,
    merge_change_maps,
    node_key,
    query_pages,
    tree_node,
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


def build(store, version, prev_root, prev_cap, indices, cap, tag=None):
    changes = {i: frag(tag or f"v{version}") for i in indices}
    return build_version(store, 1, version, prev_root, prev_cap, changes, cap)


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
        assert key_span(node_key(1, 1, 4, 8)) == 4
        assert key_span(node_key(1, 1, 3, 4)) == 1

    def test_keys_are_ints_and_nodes_exact_tuples(self):
        """What keeps them off the collector's lists: an int is never
        tracked, and an exact tuple of untracked values is untracked at
        its first collection (a tuple *subclass* is tracked for life)."""
        key = node_key(1, 1, 0, 2)
        assert type(key) is int and key_fields(key) == (1, 1, 0, 2)
        inner = tree_node(key, None, node_key(1, 1, 0, 1), None)
        assert type(inner) is tuple and inner[0] is key


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
    assert key_span(key) == hi - lo
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
        leaf_key = node_key(1, 1, 0, 1)
        with pytest.raises(ValueError):
            tree_node(leaf_key)
        with pytest.raises(ValueError):
            tree_node(leaf_key, ())
        with pytest.raises(ValueError):
            tree_node(leaf_key, frag(), left=node_key(1, 1, 0, 1))

    def test_inner_node_carries_no_page(self):
        with pytest.raises(ValueError):
            tree_node(node_key(1, 1, 0, 2), frag())

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
    return their previous key. Same arguments, same result, and (the
    point) the same store accesses in the same order."""

    def build(lo, hi, prev):
        touched = any(lo <= i < hi for i in changes)
        if not touched and prev is not _UNRESOLVED:
            return prev
        if hi - lo == 1:
            if not touched:
                return None
            leaf = tree_node(node_key(blob_id, version, lo, hi), changes[lo])
            store.put_node(leaf)
            return leaf[0]
        mid = (lo + hi) // 2
        if prev is None:
            prev_left = prev_right = None
        elif prev is _UNRESOLVED:
            assert lo == 0 and mid >= prev_capacity
            prev_left = prev_root if mid == prev_capacity else _UNRESOLVED
            prev_right = None
        else:
            _, _, prev_left, prev_right = store.get_node(prev)
        left = build(lo, mid, prev_left)
        right = build(mid, hi, prev_right)
        inner = tree_node(node_key(blob_id, version, lo, hi), None, left, right)
        store.put_node(inner)
        return inner[0]

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

    def put_node(self, node):
        self.ops.append(("put", node[0]))
        self.rec.put_node(node)


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
        batch = [(2, {0: frag("v2")}), (1, {1: frag("v1")})]
        with pytest.raises(ValueError):
            build_versions_batch(store, 1, batch, None, 0, 4)
        batch = [(1, {0: frag("v1")}), (1, {1: frag("v1b")})]
        with pytest.raises(ValueError):
            build_versions_batch(store, 1, batch, None, 0, 4)

    def test_merge_overlays_shared_boundary_page(self):
        """Two batch members sharing a page: the later one's fragment is
        overlaid, so a reader sees both byte ranges."""
        (a,) = frag("m1", start=0, length=32)
        (b,) = frag("m2", start=32, length=32)
        merged = merge_change_maps([{0: (a,)}, {0: (b,)}])
        assert merged == {0: (a, b)}
        # full replacement: the later fragment covers the earlier one
        (c,) = frag("m3", start=0, length=64)
        assert merge_change_maps([{0: (a,)}, {0: (c,)}]) == {0: (c,)}

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
        batch = [(v, m) for (v, _), m in zip(members, maps)]
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
        build_versions_batch(
            batch_store, 1, list(zip([v for v, _ in members], maps)), None, 0, cap
        )
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
            [(v, m) for (v, _), m in zip(batch, maps)],
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

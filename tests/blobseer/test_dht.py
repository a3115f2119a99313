"""Unit tests for the metadata DHT and the recording wrapper."""

import pytest

from repro.blobseer.metadata.dht import (
    CachingStore,
    MetadataDHT,
    NodeCache,
    RecordingStore,
    placement_hash,
)
from repro.blobseer.metadata.segment_tree import tree_node
from repro.blobseer.pages import Fragment, fresh_page_id
from repro.common.errors import VersionNotFoundError


def leaf(version=1, lo=0):
    return tree_node(
        (1, version, lo, lo + 1),
        fragments=(
            Fragment(0, 64, fresh_page_id(1, "w"), 0, ("p0",)),
        ),
    )


class TestPlacement:
    def test_stable(self):
        assert placement_hash(b"abc", 7) == placement_hash(b"abc", 7)

    def test_in_range(self):
        for i in range(50):
            assert 0 <= placement_hash(str(i).encode(), 5) < 5

    def test_spreads_load(self):
        buckets = [0] * 8
        for i in range(4000):
            buckets[placement_hash(f"tree/1/{i}/0/1".encode(), 8)] += 1
        assert min(buckets) > 300  # roughly uniform

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            placement_hash(b"x", 0)


class TestMetadataDHT:
    def test_put_get_roundtrip(self):
        dht = MetadataDHT(4)
        node = leaf()
        dht.put_node(node)
        assert dht.get_node(node[0]) is node

    def test_missing_raises(self):
        dht = MetadataDHT(4)
        with pytest.raises(VersionNotFoundError):
            dht.get_node((1, 1, 0, 1))

    def test_counters(self):
        dht = MetadataDHT(2)
        node = leaf()
        dht.put_node(node)
        dht.get_node(node[0])
        assert sum(dht.puts) == 1
        assert sum(dht.gets) == 1

    def test_len_and_load(self):
        dht = MetadataDHT(3)
        for lo in range(10):
            dht.put_node(leaf(lo=lo))
        assert len(dht) == 10

    def test_owner_consistent(self):
        dht = MetadataDHT(5)
        node = leaf()
        assert dht.owner(node[0]) == dht.owner(node[0])


class TestRecordingStore:
    def test_logs_accesses_with_owner(self):
        dht = MetadataDHT(4)
        rec = RecordingStore(dht)
        node = leaf()
        rec.put_node(node)
        rec.get_node(node[0])
        assert rec.take_log() == [dht.owner(node[0])] * 2  # put, get
        assert (sum(dht.puts), sum(dht.gets)) == (1, 1)

    def test_take_log_clears(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        rec.put_node(leaf())
        rec.take_log()
        assert rec.take_log() == []

    def test_passthrough_semantics(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        node = leaf()
        rec.put_node(node)
        assert dht.get_node(node[0]) is node


class _Tally:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class TestNodeCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            NodeCache(0)

    def test_evicts_least_recently_used(self):
        cache = NodeCache(2)
        a, b, c = leaf(lo=0), leaf(lo=1), leaf(lo=2)
        cache.put(a)
        cache.put(b)
        assert cache.get(a[0]) is a  # touch: b is now the LRU entry
        cache.put(c)
        assert len(cache) == 2
        assert cache.get(b[0]) is None
        assert cache.get(a[0]) is a and cache.get(c[0]) is c

    def test_counts_hits_and_misses(self):
        hits, misses = _Tally(), _Tally()
        cache = NodeCache(4, hit_counter=hits, miss_counter=misses)
        node = leaf()
        assert cache.get(node[0]) is None
        cache.put(node)
        assert cache.get(node[0]) is node
        assert (hits.value, misses.value) == (1, 1)


class TestCachingStore:
    def test_hits_never_reach_inner_store(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        store = CachingStore(rec, NodeCache(8))
        node = leaf()
        store.put_node(node)  # logged, and warms the cache
        assert rec.take_log() == [dht.owner(node[0])]
        assert store.get_node(node[0]) is node
        assert rec.take_log() == []  # served from cache: nothing charged
        assert (sum(dht.puts), sum(dht.gets)) == (1, 0)

    def test_miss_falls_through_and_populates(self):
        dht = MetadataDHT(2)
        node = leaf()
        dht.put_node(node)  # present in the DHT, cold in the cache
        rec = RecordingStore(dht)
        store = CachingStore(rec, NodeCache(8))
        assert store.get_node(node[0]) is node
        assert rec.take_log() == [dht.owner(node[0])]
        assert store.get_node(node[0]) is node
        assert rec.take_log() == []
        assert sum(dht.gets) == 1

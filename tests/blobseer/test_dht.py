"""Unit tests for the metadata DHT, the recording wrapper, the node
cache, and where placement is computed (the DES metadata charge)."""

import sys
import threading
import time

import pytest

from repro.blobseer.metadata.dht import (
    CachingStore,
    MetadataDHT,
    NodeCache,
    RecordingStore,
    placement_hash,
)
from repro.blobseer.metadata.segment_tree import key_bytes, tree_node
from repro.blobseer.pages import Fragment, fresh_page_id
from repro.common.config import ClusterConfig
from repro.common.errors import VersionNotFoundError
from repro.engine import des
from repro.engine.des import DesEngine
from repro.sim.cluster import SimCluster


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
        # a key's owner — the provider the simulator bills — is a pure
        # function of the key's value, whichever tuple carries it
        node = leaf()
        twin = tuple(list(node[0]))
        assert twin is not node[0]
        owner = placement_hash(key_bytes(node[0]), 5)
        assert placement_hash(key_bytes(twin), 5) == owner

    def test_tallies_exact_under_two_hammering_threads(self):
        """No lock guards the tallies: each thread counts in its own
        cell, so none of two threads' increments is lost even when the
        interpreter switches threads every few bytecodes."""
        dht = MetadataDHT(4)
        per_thread = 20_000
        start = threading.Barrier(2)
        errors = []

        def hammer(version):
            try:
                start.wait()
                for lo in range(per_thread):
                    node = leaf(version=version, lo=lo)
                    dht.put_node(node)
                    assert dht.get_node(node[0]) is node
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(b,)) for b in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sum(dht.puts) == sum(dht.gets) == 2 * per_thread
        assert len(dht) == 2 * per_thread

    def test_has_no_owner_and_no_lock(self):
        dht = MetadataDHT(3)
        assert not hasattr(dht, "owner")
        held = [
            name
            for name, value in vars(dht).items()
            if hasattr(value, "acquire")
        ]
        assert held == []


class TestRecordingStore:
    def test_logs_accesses_with_owner(self):
        # the log holds node keys; their owners are the DES charge's job
        dht = MetadataDHT(4)
        rec = RecordingStore(dht)
        node = leaf()
        rec.put_node(node)
        rec.get_node(node[0])
        assert rec.take_log() == [node[0]] * 2  # put, get
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

    def test_get_racing_eviction_is_a_miss(self):
        """Regression: ``get`` found a key, then a ``put`` on another
        thread evicted it before ``move_to_end`` — a ``KeyError`` out of
        a plain cache lookup. A key evicted mid-lookup is now a miss."""
        cache = NodeCache(4)
        nodes = [leaf(lo=lo) for lo in range(64)]
        stop = threading.Event()
        errors = []

        def putter():
            i = 0
            while not stop.is_set():
                cache.put(nodes[i % 64])
                i += 1

        def getter():
            # the parent's cache raised within ~0.4 s (~500k gets) here
            deadline = time.perf_counter() + 1.5
            try:
                while time.perf_counter() < deadline:
                    for node in nodes:
                        got = cache.get(node[0])
                        assert got is None or got is node
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            put_thread = threading.Thread(target=putter)
            put_thread.start()
            getter()
            stop.set()
            put_thread.join(10)
        finally:
            sys.setswitchinterval(previous)
        assert not put_thread.is_alive()
        assert not errors, errors[0]
        assert len(cache) <= 4


class TestCachingStore:
    def test_hits_never_reach_inner_store(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        store = CachingStore(rec, NodeCache(8))
        node = leaf()
        store.put_node(node)  # logged, and warms the cache
        assert rec.take_log() == [node[0]]
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
        assert rec.take_log() == [node[0]]
        assert store.get_node(node[0]) is node
        assert rec.take_log() == []
        assert sum(dht.gets) == 1


class TestDesCharge:
    def test_bills_exactly_the_placement_slots(self, monkeypatch):
        """``DesEngine.charge_md`` is where placement is computed: each
        logged key bills the slot ``placement_hash(key_bytes(k), n)``,
        in log order, duplicates kept."""
        billed = []

        def spy(resources, latency, service, done):
            billed.append(list(resources))
            done.succeed(None)

        monkeypatch.setattr(des, "batch_round_trips", spy)
        engine = DesEngine(SimCluster(ClusterConfig(nodes=4, seed=1)))
        n = 5
        engine.bind_md(n)
        keys = [(1, v, lo, lo + 1) for v in (1, 2) for lo in range(6)]
        keys.append(keys[0])
        engine.charge_md(keys)
        slots = engine._md_slots
        assert billed == [
            [slots[placement_hash(key_bytes(k), n)] for k in keys]
        ]
        # the keys really spread: more than one provider is billed
        assert len({id(r) for r in billed[0]}) > 1

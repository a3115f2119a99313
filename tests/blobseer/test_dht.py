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
from repro.blobseer.metadata.segment_tree import (
    build_version,
    capacity_for,
    key_bytes,
    node_key,
)
from repro.blobseer.pages import Fragment, fresh_page_id
from repro.common.config import ClusterConfig
from repro.common.errors import VersionNotFoundError
from repro.engine import des
from repro.engine.des import DesEngine
from repro.sim.cluster import SimCluster


def leaf(version=1, lo=0):
    """``(key, value)`` of a leaf: its value is its fragment tuple."""
    return (
        node_key(1, version, lo, lo + 1),
        (Fragment(0, 64, fresh_page_id(1, "w"), 0, ("p0",)),),
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
        """A get returns the very value put: the DHT keeps no key or
        wrapper beside it, for a leaf's tuple or an inner node's int."""
        dht = MetadataDHT(4)
        key, value = leaf()
        dht.put_node(key, value)
        assert dht.get_node(key) is value
        inner_key, inner = node_key(1, 1, 0, 2), (2 << 33) | 2**33 - 1
        dht.put_node(inner_key, inner)
        assert dht.get_node(inner_key) is inner
        assert dht._buckets[key % 4][key] is value and len(dht) == 2

    def test_missing_raises(self):
        dht = MetadataDHT(4)
        with pytest.raises(VersionNotFoundError):
            dht.get_node(node_key(1, 1, 0, 1))

    def test_counters(self):
        dht = MetadataDHT(2)
        key, value = leaf()
        dht.put_node(key, value)
        dht.get_node(key)
        assert sum(dht.puts) == 1
        assert sum(dht.gets) == 1

    def test_len_and_load(self):
        dht = MetadataDHT(3)
        for lo in range(10):
            dht.put_node(*leaf(lo=lo))
        assert len(dht) == 10

    def test_owner_consistent(self):
        # a key's owner — the provider the simulator bills — is a pure
        # function of the key's value, whichever int object carries it
        key, _ = leaf()
        twin = int(str(key))
        assert twin is not key
        owner = placement_hash(key_bytes(key), 5)
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
                    key, value = leaf(version=version, lo=lo)
                    dht.put_node(key, value)
                    assert dht.get_node(key) is value
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

    def test_a_history_fills_every_partition(self):
        """Inner nodes' ``hi`` is a multiple of their span, so a key's
        low bits must not be ``hi``'s: an append history spreads over
        all partitions, none holding more than twice its share."""
        dht = MetadataDHT(4)
        root, cap = None, 0
        for v in range(1, 257):
            frags = (Fragment(0, 64, fresh_page_id(1, f"v{v}"), 0, ("p0",)),)
            root = build_version(dht, 1, v, root, cap, {v - 1: frags}, capacity_for(v))
            cap = capacity_for(v)
        sizes = [len(bucket) for bucket in dht._buckets]
        assert max(sizes) <= 2 * len(dht) / len(sizes), sizes

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
        key, value = leaf()
        rec.put_node(key, value)
        assert rec.get_node(key) is value
        assert rec.take_log() == [key] * 2  # put, get
        assert (sum(dht.puts), sum(dht.gets)) == (1, 1)

    def test_counts_reach_the_tallies_once_per_op(self):
        dht = MetadataDHT(4)
        key, value = leaf()
        dht.put_node(key, value)
        session = RecordingStore(dht)
        for lo in range(1, 4):
            session.put_node(*leaf(lo=lo))
        session.get_node(key)
        session.get_node(key)
        # the session reads and writes the partitions directly...
        assert len(dht) == 4 and (sum(dht.puts), sum(dht.gets)) == (1, 0)
        # ...and adds its accesses when the op takes its log
        assert len(session.take_log()) == 5
        assert (sum(dht.puts), sum(dht.gets)) == (4, 2)
        assert session.take_log() == []
        assert (sum(dht.puts), sum(dht.gets)) == (4, 2)

    def test_a_missing_node_raises_and_is_counted(self):
        dht = MetadataDHT(2)
        session = RecordingStore(dht)
        session.put_node(*leaf())
        with pytest.raises(VersionNotFoundError, match=r"blob 1 v1 \[1, 2\)"):
            session.get_node(node_key(1, 1, 1, 2))
        assert (sum(dht.puts), sum(dht.gets)) == (1, 1)

    def test_sessions_count_exactly_under_hammering_threads(self):
        """One session per op on each of more threads than cores: each
        adds its op's gets and puts to its own thread's cell, so no
        count is lost however often the interpreter switches."""
        dht = MetadataDHT(4)
        per_thread, n_threads = 5_000, 3
        start = threading.Barrier(n_threads)
        errors = []

        def hammer(version):
            try:
                start.wait()
                for lo in range(per_thread):
                    session = RecordingStore(dht)
                    key, value = leaf(version=version, lo=lo)
                    session.put_node(key, value)
                    assert session.get_node(key) is value
                    assert len(session.take_log()) == 2
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(v,))
                for v in range(1, n_threads + 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        total = n_threads * per_thread
        assert sum(dht.puts) == sum(dht.gets) == len(dht) == total

    def test_take_log_clears(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        rec.put_node(*leaf())
        rec.take_log()
        assert rec.take_log() == []

    def test_passthrough_semantics(self):
        dht = MetadataDHT(2)
        rec = RecordingStore(dht)
        key, value = leaf()
        rec.put_node(key, value)
        assert dht.get_node(key) is value


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
        cache.put(*a)
        cache.put(*b)
        assert cache.get(a[0]) is a[1]  # touch: b is now the LRU entry
        cache.put(*c)
        assert len(cache) == 2
        assert cache.get(b[0]) is None
        assert cache.get(a[0]) is a[1] and cache.get(c[0]) is c[1]

    def test_counts_hits_and_misses(self):
        hits, misses = _Tally(), _Tally()
        cache = NodeCache(4, hit_counter=hits, miss_counter=misses)
        key, value = leaf()
        assert cache.get(key) is None
        cache.put(key, value)
        assert cache.get(key) is value
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
                cache.put(*nodes[i % 64])
                i += 1

        def getter():
            # the parent's cache raised within ~0.4 s (~500k gets) here
            deadline = time.perf_counter() + 1.5
            try:
                while time.perf_counter() < deadline:
                    for key, value in nodes:
                        got = cache.get(key)
                        assert got is None or got is value
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
        key, value = leaf()
        store.put_node(key, value)  # logged, and warms the cache
        assert rec.take_log() == [key]
        assert store.get_node(key) is value
        assert rec.take_log() == []  # served from cache: nothing charged
        assert (sum(dht.puts), sum(dht.gets)) == (1, 0)

    def test_miss_falls_through_and_populates(self):
        dht = MetadataDHT(2)
        key, value = leaf()
        dht.put_node(key, value)  # present in the DHT, cold in the cache
        rec = RecordingStore(dht)
        store = CachingStore(rec, NodeCache(8))
        assert store.get_node(key) is value
        assert rec.take_log() == [key]
        assert store.get_node(key) is value
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
        keys = [node_key(1, v, lo, lo + 1) for v in (1, 2) for lo in range(6)]
        keys.append(keys[0])
        engine.charge_md(None, keys)
        slots = engine._md_owner.slots
        assert billed == [
            [slots[placement_hash(key_bytes(k), n)] for k in keys]
        ]
        # the keys really spread: more than one provider is billed
        assert len({id(r) for r in billed[0]}) > 1

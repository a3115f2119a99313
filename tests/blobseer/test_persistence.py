"""Unit tests for provider persistence (the BerkeleyDB substitute)."""

import hashlib
import random
import sys
import threading
import time

import pytest

from repro.blobseer.backends import InMemoryPageStore, LogStructuredPageStore
from repro.common.errors import PageNotFoundError


class TestInMemory:
    def test_roundtrip(self):
        store = InMemoryPageStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.contains(b"k")

    def test_missing(self):
        with pytest.raises(PageNotFoundError):
            InMemoryPageStore().get(b"ghost")

    def test_delete(self):
        store = InMemoryPageStore()
        store.put(b"k", b"v")
        store.delete(b"k")
        assert not store.contains(b"k")
        store.delete(b"k")  # idempotent


class TestLogStructured:
    def test_roundtrip(self, tmp_path):
        store = LogStructuredPageStore(tmp_path / "pages.log")
        store.put(b"k1", b"v1")
        store.put(b"k2", b"v" * 5000)
        assert store.get(b"k1") == b"v1"
        assert store.get(b"k2") == b"v" * 5000
        store.close()

    def test_overwrite_latest_wins(self, tmp_path):
        store = LogStructuredPageStore(tmp_path / "pages.log")
        store.put(b"k", b"old")
        store.put(b"k", b"new")
        assert store.get(b"k") == b"new"
        store.close()

    def test_recovery_after_reopen(self, tmp_path):
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.delete(b"a")
        store.close()
        reopened = LogStructuredPageStore(path)
        assert not reopened.contains(b"a")
        assert reopened.get(b"b") == b"2"
        reopened.close()

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        store.put(b"good", b"payload")
        store.close()
        # simulate a crash mid-append: garbage tail
        with open(path, "ab") as fp:
            fp.write(b"\xde\xad\xbe\xef-torn-record")
        reopened = LogStructuredPageStore(path)
        assert reopened.get(b"good") == b"payload"
        # the torn bytes are gone: new writes recover cleanly
        reopened.put(b"after", b"crash")
        reopened.close()
        final = LogStructuredPageStore(path)
        assert final.get(b"after") == b"crash"
        final.close()

    def test_compaction_shrinks_log(self, tmp_path):
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        for i in range(20):
            store.put(b"hot", b"x" * 1000)  # 19 dead versions
        before = path.stat().st_size
        store.compact()
        after = path.stat().st_size
        assert after < before / 5
        assert store.get(b"hot") == b"x" * 1000
        store.close()

    def test_compaction_preserves_all_keys(self, tmp_path):
        store = LogStructuredPageStore(tmp_path / "pages.log")
        for i in range(10):
            store.put(f"k{i}".encode(), f"v{i}".encode())
        store.delete(b"k3")
        store.compact()
        assert sorted(store.keys()) == sorted(
            f"k{i}".encode() for i in range(10) if i != 3
        )
        assert store.get(b"k7") == b"v7"
        store.close()

    def test_len(self, tmp_path):
        store = LogStructuredPageStore(tmp_path / "pages.log")
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert len(store) == 2
        store.close()

    def test_provider_with_durable_backend(self, tmp_path):
        """A provider wired to the log store keeps pages across restarts."""
        from repro.blobseer.pages import fresh_page_id
        from repro.blobseer.provider import Provider

        pid = fresh_page_id(1, "w")
        p = Provider("p0", LogStructuredPageStore(tmp_path / "p0.log"))
        p.put_page(pid, b"durable bytes")
        p.store.close()
        p2 = Provider("p0", LogStructuredPageStore(tmp_path / "p0.log"))
        assert p2.get_page(pid) == b"durable bytes"
        p2.store.close()


class TestLogFormat:
    def test_fixed_sequence_writes_the_pinned_bytes(self, tmp_path):
        """The on-disk format is a contract: recovery replays it and the
        benchmark's ``stored_bytes_per_user_byte`` measures it. A fixed
        sequence of puts, an overwrite, deletes and a compaction writes
        these exact bytes."""
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        for i in range(6):
            store.put(f"page/1/w/{i}".encode(), bytes([i]) * (100 + 37 * i))
        store.put(b"page/1/w/2", b"overwritten")
        store.delete(b"page/1/w/4")
        store.delete(b"absent")  # no tombstone for a key never stored
        raw = path.read_bytes()
        assert len(raw) == 1398
        assert hashlib.sha256(raw).hexdigest() == (
            "6263682c56ac34f0daf6afac4dfa9ad75f67510968024e96e2262f741dc6e197"
        )
        store.compact()
        store.put(b"after", b"compaction")
        store.close()
        raw = path.read_bytes()
        assert len(raw) == 923
        assert hashlib.sha256(raw).hexdigest() == (
            "b761cc9a2b17970e475528b55b52e62cf05079b7c8cb486c931078dc96c3c608"
        )


class TestLogConcurrency:
    def test_gets_racing_writers_and_compaction_see_stored_bytes(self, tmp_path):
        """``get`` takes no lock. Racing puts, overwrites, deletes and
        ``compact()``, it returns bytes some put stored under that very
        key, or raises ``PageNotFoundError`` — never a corrupt record,
        a torn one, or another key's bytes."""
        keys = [f"page/{i}".encode() for i in range(24)]

        def value(key: bytes, gen: int) -> bytes:
            return b"%s#%d#" % (key, gen) + bytes([gen % 251]) * (300 + gen % 700)

        def valid(key: bytes, data: bytes) -> bool:
            head, gen, _ = data.split(b"#", 2)
            return head == key and data == value(key, int(gen))

        store = LogStructuredPageStore(tmp_path / "pages.log")
        for key in keys:
            store.put(key, value(key, 0))
        stop = threading.Event()
        errors = []
        seen = {"bytes": 0, "missing": 0, "compactions": 0}

        def writer():
            rng = random.Random(1)
            gen = 1
            try:
                while not stop.is_set():
                    key = rng.choice(keys)
                    roll = rng.random()
                    if roll < 0.02:
                        store.compact()
                        seen["compactions"] += 1
                    elif roll < 0.2:
                        store.delete(key)
                    else:
                        store.put(key, value(key, gen))
                        gen += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    key = rng.choice(keys)
                    try:
                        data = store.get(key)
                    except PageNotFoundError:
                        seen["missing"] += 1
                        continue
                    assert valid(key, data), (key, data[:40])
                    seen["bytes"] += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(seed,)) for seed in (2, 3)
            ]
            for t in threads:
                t.start()
            time.sleep(1.0)
            stop.set()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(previous)
            store.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, repr(errors[0])
        assert seen["bytes"] > 100 and seen["missing"] > 0
        assert seen["compactions"] > 2

"""Unit tests for provider persistence (the BerkeleyDB substitute)."""

import errno
import hashlib
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.backends import (
    InMemoryPageStore,
    LogStructuredPageStore,
    logstore,
)
from repro.common.errors import PageNotFoundError


class TestInMemory:
    def test_roundtrip(self):
        store = InMemoryPageStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_missing(self):
        with pytest.raises(PageNotFoundError):
            InMemoryPageStore().get(b"ghost")


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
        store.put(b"a", b"3")
        store.close()
        reopened = LogStructuredPageStore(path)
        assert reopened.get(b"a") == b"3"
        assert reopened.get(b"b") == b"2"
        assert len(reopened) == 2
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

    def test_failed_write_is_cut_back_off_the_log(self, tmp_path, monkeypatch):
        """A write that fails after a short write leaves no partial
        record behind: a later put reads back, live and after a reopen."""
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        store.put(b"a", b"1" * 100)
        write = logstore.os.write

        def short_then_full_disk(fd, data):
            if len(data) > 20:
                return write(fd, data[:20])
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(logstore.os, "write", short_then_full_disk)
            with pytest.raises(OSError):
                store.put(b"b", b"2" * 100)
        store.put(b"c", b"3" * 100)
        assert store.get(b"c") == b"3" * 100
        with pytest.raises(PageNotFoundError):
            store.get(b"b")
        store.close()
        reopened = LogStructuredPageStore(path)
        assert reopened.get(b"a") == b"1" * 100
        assert reopened.get(b"c") == b"3" * 100
        assert len(reopened) == 2
        reopened.close()

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


class TestLogIndex:
    """An index entry is one int, ``offset << 32 | length``."""

    def test_entry_at_the_length_field_limit(self):
        top = (1 << 32) - 1
        for offset in (0, 1, top, 1 << 40):
            entry = logstore._entry(offset, top)
            assert type(entry) is int
            assert (entry >> 32, entry & top) == (offset, top)
        with pytest.raises(ValueError, match="does not fit"):
            logstore._entry(0, 1 << 32)
        with pytest.raises(ValueError):
            logstore._entry(7, 0)

    def test_a_record_too_long_for_its_field_is_refused_before_the_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        store.put(b"a", b"1")
        size = path.stat().st_size
        # a narrower field, all ones: room for a one-byte value's record
        # again, not for a 64-byte one's
        limit = (1 << size.bit_length()) - 1
        assert size <= limit < size + 63
        monkeypatch.setattr(logstore, "_LENGTH_MASK", limit)
        with pytest.raises(ValueError, match="does not fit"):
            store.put(b"b", b"2" * 64)
        assert path.stat().st_size == size
        with pytest.raises(PageNotFoundError):
            store.get(b"b")
        store.put(b"c", b"3")
        assert store.get(b"c") == b"3" and store.get(b"a") == b"1"
        store.close()

    def test_recovery_after_a_torn_tail_rebuilds_the_same_entries(self, tmp_path):
        """Replay rebuilds, entry for entry, the ints the puts indexed:
        back to back records, each offset the previous record's end. A
        half-written last record is cut off and indexes nothing."""
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        for i in range(5):
            store.put(b"k%d" % i, bytes([i]) * (100 * i + 1))
        store.put(b"k1", b"rewritten")  # an overwrite: the later record wins
        live = dict(store._gen.index)
        good_end = path.stat().st_size
        store.put(b"torn", b"t" * 300)
        store.close()
        raw = path.read_bytes()
        path.write_bytes(raw[: good_end + (len(raw) - good_end) // 2])
        reopened = LogStructuredPageStore(path)
        assert reopened._gen.index == live
        assert all(type(entry) is int for entry in live.values())
        assert path.stat().st_size == good_end
        spans = sorted((e >> 32, e & (1 << 32) - 1) for e in live.values())
        assert spans[-1][0] + spans[-1][1] == good_end
        assert reopened.get(b"k1") == b"rewritten"
        assert reopened.get(b"k4") == bytes([4]) * 401
        with pytest.raises(PageNotFoundError):
            reopened.get(b"torn")
        reopened.close()


class TestReplay:
    @settings(max_examples=60, deadline=None)
    @given(
        puts=st.lists(
            st.tuples(st.sampled_from([b"a", b"b", b"c"]), st.binary(max_size=40)),
            max_size=10,
        ),
        data=st.data(),
    )
    def test_reopen_keeps_exactly_the_records_before_the_cut(self, puts, data):
        """Cut the log at any byte — a crash mid-write — and reopen:
        exactly the records that end at or before the cut are readable,
        the last write of each key wins, and the torn rest is gone."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pages.log"
            store = LogStructuredPageStore(path)
            ends = []
            for key, value in puts:
                store.put(key, value)
                ends.append(path.stat().st_size)
            store.close()
            raw = path.read_bytes()
            cuts = {0, len(raw), data.draw(st.integers(0, len(raw)), label="cut")}
            for cut in sorted(cuts):
                path.write_bytes(raw[:cut])
                kept = [end for end in ends if end <= cut]
                model = dict(puts[: len(kept)])
                store = LogStructuredPageStore(path)
                try:
                    assert len(store) == len(model)
                    for key in (b"a", b"b", b"c"):
                        if key in model:
                            assert store.get(key) == model[key]
                        else:
                            with pytest.raises(PageNotFoundError):
                                store.get(key)
                finally:
                    store.close()
                assert path.stat().st_size == (kept[-1] if kept else 0)


class TestLogFormat:
    def test_fixed_sequence_writes_the_pinned_bytes(self, tmp_path):
        """The on-disk format is a contract: recovery replays it and the
        benchmark's ``stored_bytes_per_user_byte`` measures it. A fixed
        sequence of puts and an overwrite writes these exact bytes."""
        path = tmp_path / "pages.log"
        store = LogStructuredPageStore(path)
        for i in range(6):
            store.put(f"page/1/w/{i}".encode(), bytes([i]) * (100 + 37 * i))
        store.put(b"page/1/w/2", b"overwritten")
        store.close()
        raw = path.read_bytes()
        assert len(raw) == 1369
        assert hashlib.sha256(raw).hexdigest() == (
            "7edb5c1e2269d71606b8171e20a61b1a332677e56cb50b9282741c4fe2be1dd2"
        )


class TestLogConcurrency:
    def test_gets_racing_writers_see_stored_bytes(self, tmp_path):
        """``get`` takes no lock. Racing puts and overwrites, it returns
        bytes some put stored under that very key, or raises
        ``PageNotFoundError`` for a key not yet put — never a corrupt
        record, a torn one, or another key's bytes."""
        keys = [f"page/{i}".encode() for i in range(24)]

        def value(key: bytes, gen: int) -> bytes:
            return b"%s#%d#" % (key, gen) + bytes([gen % 251]) * (300 + gen % 700)

        def valid(key: bytes, data: bytes) -> bool:
            head, gen, _ = data.split(b"#", 2)
            return head == key and data == value(key, int(gen))

        store = LogStructuredPageStore(tmp_path / "pages.log")
        for key in keys[::2]:
            store.put(key, value(key, 0))
        stop = threading.Event()
        errors = []
        seen = {"bytes": 0, "missing": 0}

        def writer():
            rng = random.Random(1)
            # the odd keys appear one at a time while readers look; the
            # last is never put, so every reader meets a missing key
            unput = keys[1:-1:2]
            gen = 1
            try:
                while not stop.is_set():
                    if unput and rng.random() < 0.01:
                        key = unput.pop()
                    else:
                        key = rng.choice(keys[::2])
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

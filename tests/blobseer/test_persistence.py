"""Unit tests for provider persistence (the BerkeleyDB substitute)."""

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

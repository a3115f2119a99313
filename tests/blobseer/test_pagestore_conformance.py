"""The shared page-store conformance suite.

Both page stores — memory, log-structured — must behave identically
through the :class:`PageStore` protocol; the suite parametrizes over
the two names ``create_store`` opens. Durability/crash-recovery round
trips run only for the durable backend.
"""

import pytest

from repro.blobseer import BlobSeerService
from repro.blobseer.backends import (
    InMemoryPageStore,
    LogStructuredPageStore,
    create_store,
)
from repro.common.config import BlobSeerConfig
from repro.common.errors import PageNotFoundError

DURABLE = ("log",)


@pytest.fixture(params=("memory", "log"))
def backend(request):
    return request.param


def make(backend, tmp_path, fsync=False):
    return create_store(backend, "prov-000", root=tmp_path, fsync=fsync)


class TestConformance:
    def test_registry_covers_both(self, tmp_path):
        assert isinstance(make("memory", tmp_path), InMemoryPageStore)
        store = make("log", tmp_path)
        try:
            assert isinstance(store, LogStructuredPageStore)
        finally:
            store.close()

    def test_put_get_roundtrip(self, backend, tmp_path):
        store = make(backend, tmp_path)
        try:
            store.put(b"k1", b"hello")
            assert store.get(b"k1") == b"hello"
        finally:
            store.close()

    def test_get_missing_raises(self, backend, tmp_path):
        store = make(backend, tmp_path)
        try:
            with pytest.raises(PageNotFoundError):
                store.get(b"nope")
        finally:
            store.close()

    def test_overwrite_returns_latest(self, backend, tmp_path):
        store = make(backend, tmp_path)
        try:
            store.put(b"k", b"v1")
            store.put(b"k", b"v2")
            assert store.get(b"k") == b"v2"
        finally:
            store.close()

    def test_binary_safe_keys_and_values(self, backend, tmp_path):
        store = make(backend, tmp_path)
        try:
            key = b"page/7/\x00writer\xff/3"
            value = bytes(range(256)) * 4
            store.put(key, value)
            assert store.get(key) == value
        finally:
            store.close()

    def test_large_page(self, backend, tmp_path):
        store = make(backend, tmp_path)
        try:
            blob = b"x" * (1 << 20)
            store.put(b"big", blob)
            assert store.get(b"big") == blob
        finally:
            store.close()


class TestDurability:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_reopen_recovers_everything(self, backend, tmp_path):
        store = make(backend, tmp_path)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.put(b"a", b"3")
        store.close()
        again = make(backend, tmp_path)
        try:
            assert len(again) == 2
            assert again.get(b"a") == b"3"
            assert again.get(b"b") == b"2"
        finally:
            again.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_fsync_mode_roundtrips(self, backend, tmp_path):
        store = make(backend, tmp_path, fsync=True)
        for i in range(20):
            store.put(f"k{i}".encode(), bytes([i]) * 10)
        store.close()
        again = make(backend, tmp_path)
        try:
            assert len(again) == 20
            assert again.get(b"k19") == bytes([19]) * 10
        finally:
            again.close()

    def test_log_store_truncates_torn_tail(self, tmp_path):
        store = make("log", tmp_path)
        store.put(b"whole", b"survives")
        store.put(b"torn", b"this record will be cut mid-frame")
        store.close()
        path = tmp_path / "prov-000.log"
        data = path.read_bytes()
        # cut inside the final record's frame: a crash mid-write
        path.write_bytes(data[: len(data) - 7])
        again = make("log", tmp_path)
        try:
            assert len(again) == 1
            assert again.get(b"whole") == b"survives"
        finally:
            again.close()

    def test_log_store_drops_corrupt_record(self, tmp_path):
        store = make("log", tmp_path)
        store.put(b"k", b"payload-to-corrupt")
        store.close()
        path = tmp_path / "prov-000.log"
        data = bytearray(path.read_bytes())
        flip = data.rindex(b"payload-to-corrupt")
        data[flip] ^= 0xFF
        path.write_bytes(bytes(data))
        again = make("log", tmp_path)
        try:
            # CRC mismatch: the record (and the tail after it) is gone
            assert len(again) == 0
            with pytest.raises(PageNotFoundError):
                again.get(b"k")
        finally:
            again.close()


class TestConfigWiring:
    def test_memory_config_means_provider_default(self):
        svc = BlobSeerService(BlobSeerConfig(), n_providers=1)
        assert isinstance(svc.providers["provider-000"].store, InMemoryPageStore)

    def test_durable_config_builds_stores(self, tmp_path):
        cfg = BlobSeerConfig(
            page_store_backend="log", page_store_dir=str(tmp_path)
        )
        svc = BlobSeerService(cfg, n_providers=8)
        try:
            store = svc.providers["provider-007"].store
            assert isinstance(store, LogStructuredPageStore)
            assert store.path == tmp_path / "provider-007.log"
            store.put(b"k", b"v")
            assert (tmp_path / "provider-007.log").is_file()
        finally:
            svc.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(
            ValueError, match="unknown page-store backend .*memory, log"
        ):
            create_store("bdb", "p0", root="/tmp")

    def test_durable_backend_requires_root(self):
        with pytest.raises(ValueError, match="page_store_dir"):
            create_store("log", "p0")

    def test_config_validate_requires_dir_for_durable(self):
        cfg = BlobSeerConfig(page_store_backend="log")
        with pytest.raises(ValueError):
            cfg.validate()

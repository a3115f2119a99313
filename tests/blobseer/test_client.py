"""Integration tests for the threaded BlobSeer client: append/write/read
semantics, versioning snapshots, concurrency, fault tolerance."""

import collections
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerService, Provider
from repro.common.config import BlobSeerConfig
from repro.common.errors import OutOfRangeReadError, ReplicationError


@pytest.fixture()
def svc():
    return BlobSeerService(
        BlobSeerConfig(page_size=1024, metadata_providers=4),
        n_providers=6,
        seed=7,
    )


@pytest.fixture()
def client(svc):
    return svc.client("c0")


class TestAppend:
    def test_append_returns_versions(self, client):
        blob = client.create_blob()
        assert client.append(blob, b"x" * 10) == 1
        assert client.append(blob, b"y" * 10) == 2
        assert client.size(blob) == 20

    def test_append_with_offset(self, client):
        blob = client.create_blob()
        v, off = client.append_with_offset(blob, b"a" * 100)
        assert (v, off) == (1, 0)
        v, off = client.append_with_offset(blob, b"b" * 100)
        assert (v, off) == (2, 100)

    def test_multi_page_append(self, client):
        blob = client.create_blob()
        data = bytes(range(256)) * 20  # 5120 bytes = 5 pages
        client.append(blob, data)
        assert client.read(blob, 0, len(data)) == data

    def test_unaligned_appends_reassemble(self, client):
        blob = client.create_blob()
        pieces = [b"a" * 700, b"b" * 900, b"c" * 1500, b"d" * 64]
        for piece in pieces:
            client.append(blob, piece)
        whole = b"".join(pieces)
        assert client.read(blob, 0, len(whole)) == whole

    def test_empty_append_rejected(self, client):
        blob = client.create_blob()
        with pytest.raises(ValueError):
            client.append(blob, b"")


class TestWrite:
    def test_overwrite_page_interior(self, client):
        blob = client.create_blob()
        client.append(blob, b"a" * 3000)
        client.write(blob, 1024, b"X" * 100)
        data = client.read(blob, 0, 3000)
        assert data[:1024] == b"a" * 1024
        assert data[1024:1124] == b"X" * 100
        assert data[1124:] == b"a" * 1876

    def test_overwrite_extends_size(self, client):
        blob = client.create_blob()
        client.append(blob, b"a" * 1024)
        client.write(blob, 1024, b"b" * 500)
        assert client.size(blob) == 1524

    def test_unaligned_write_rejected(self, client):
        blob = client.create_blob()
        client.append(blob, b"a" * 2048)
        with pytest.raises(ValueError):
            client.write(blob, 100, b"x")


class TestVersioning:
    def test_snapshots_immutable(self, client):
        blob = client.create_blob()
        client.append(blob, b"1" * 1000)
        client.append(blob, b"2" * 1000)
        client.write(blob, 0, b"Z" * 1000)
        assert client.read(blob, 0, 1000, version=1) == b"1" * 1000
        assert client.read(blob, 0, 2000, version=2) == b"1" * 1000 + b"2" * 1000
        assert client.read(blob, 0, 1000, version=3) == b"Z" * 1000

    def test_latest_version(self, client):
        blob = client.create_blob()
        assert client.latest_version(blob) == 0
        client.append(blob, b"x")
        assert client.latest_version(blob) == 1

    def test_version_sizes(self, client):
        blob = client.create_blob()
        client.append(blob, b"x" * 10)
        client.append(blob, b"y" * 20)
        assert client.size(blob, version=1) == 10
        assert client.size(blob, version=2) == 30


class TestReads:
    def test_read_beyond_size_raises(self, client):
        blob = client.create_blob()
        client.append(blob, b"x" * 100)
        with pytest.raises(OutOfRangeReadError):
            client.read(blob, 50, 100)

    def test_zero_size_read(self, client):
        blob = client.create_blob()
        client.append(blob, b"x" * 100)
        assert client.read(blob, 100, 0) == b""
        with pytest.raises(OutOfRangeReadError):
            client.read(blob, 101, 0)

    def test_cross_page_read(self, client):
        blob = client.create_blob()
        client.append(blob, b"a" * 1024 + b"b" * 1024)
        assert client.read(blob, 1000, 48) == b"a" * 24 + b"b" * 24


class TestLayout:
    def test_layout_covers_blob(self, client):
        blob = client.create_blob()
        client.append(blob, b"x" * 2500)
        layout = client.get_layout(blob)
        assert sum(length for _o, length, _p in layout) == 2500
        assert all(providers for _o, _l, providers in layout)
        offsets = [offset for offset, _l, _p in layout]
        assert offsets == sorted(offsets)

    def test_layout_empty_blob(self, client):
        blob = client.create_blob()
        assert client.get_layout(blob) == []

    def test_layout_versioned(self, client):
        blob = client.create_blob()
        client.append(blob, b"x" * 1000)
        client.append(blob, b"y" * 1000)
        v1 = client.get_layout(blob, version=1)
        assert sum(length for _o, length, _p in v1) == 1000


class TestConcurrency:
    def test_concurrent_appends_all_land_intact(self, svc):
        blob = svc.client("setup").create_blob()
        n = 24
        payloads = {i: bytes([0x30 + i % 64]) * (333 + 61 * i) for i in range(n)}
        results = {}

        def worker(i):
            c = svc.client(f"w{i}")
            results[i] = c.append_with_offset(blob, payloads[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reader = svc.client("reader")
        total = sum(len(p) for p in payloads.values())
        assert reader.size(blob) == total
        whole = reader.read(blob, 0, total)
        # each payload sits exactly at its assigned offset
        for i, (version, offset) in results.items():
            assert whole[offset : offset + len(payloads[i])] == payloads[i]
        assert sorted(v for v, _o in results.values()) == list(range(1, n + 1))

    def test_concurrent_readers_during_appends(self, svc):
        blob = svc.client("setup").create_blob()
        writer = svc.client("writer")
        writer.append(blob, b"base" * 300)
        stop = threading.Event()
        errors = []

        def reader_loop():
            c = svc.client("r")
            try:
                while not stop.is_set():
                    size = c.size(blob)
                    data = c.read(blob, 0, min(size, 1200))
                    assert data[:4] == b"base"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader_loop) for _ in range(3)]
        for t in readers:
            t.start()
        for i in range(10):
            writer.append(blob, bytes([i]) * 500)
        stop.set()
        for t in readers:
            t.join()
        assert errors == []


class TestFaultTolerance:
    def test_replicated_read_survives_provider_failure(self):
        svc = BlobSeerService(
            BlobSeerConfig(page_size=1024, metadata_providers=2, replication=2),
            n_providers=5,
            seed=3,
        )
        c = svc.client("c")
        blob = c.create_blob()
        c.append(blob, b"precious" * 200)
        layout = c.get_layout(blob)
        primary = layout[0][2][0]
        svc.fail_provider(primary)
        assert c.read(blob, 0, 1600) == (b"precious" * 200)[:1600]

    def test_unreplicated_read_fails_after_crash(self, svc):
        c = svc.client("c")
        blob = c.create_blob()
        c.append(blob, b"x" * 100)
        holder = c.get_layout(blob)[0][2][0]
        svc.fail_provider(holder)
        with pytest.raises(ReplicationError):
            c.read(blob, 0, 100)
        svc.recover_provider(holder)
        assert c.read(blob, 0, 100) == b"x" * 100

    def test_write_routes_around_failed_provider(self, svc):
        c = svc.client("c")
        svc.fail_provider("provider-000")
        svc.fail_provider("provider-001")
        blob = c.create_blob()
        c.append(blob, b"y" * 5000)
        assert c.read(blob, 0, 5000) == b"y" * 5000
        for _o, _l, providers in c.get_layout(blob):
            assert "provider-000" not in providers
            assert "provider-001" not in providers


@settings(max_examples=20, deadline=None)
@given(
    pieces=st.lists(
        st.integers(min_value=1, max_value=3000), min_size=1, max_size=8
    )
)
def test_sequential_appends_equal_one_big_write(pieces):
    """Property: appending arbitrary-size pieces reconstructs their
    concatenation, across page boundaries."""
    svc = BlobSeerService(
        BlobSeerConfig(page_size=512, metadata_providers=2), n_providers=3, seed=1
    )
    c = svc.client("c")
    blob = c.create_blob()
    expected = bytearray()
    for i, n in enumerate(pieces):
        piece = bytes([(i * 37 + 11) % 256]) * n
        c.append(blob, piece)
        expected += piece
    assert c.read(blob, 0, len(expected)) == bytes(expected)


class TestReplicaRotation:
    """Reads rotate their starting replica (seeded) instead of hammering
    placement order, and remember dead providers per stream lifetime."""

    def _everywhere_svc(self):
        return BlobSeerService(
            BlobSeerConfig(page_size=1024, metadata_providers=2, replication=4),
            n_providers=4,
            seed=11,
        )

    @staticmethod
    def _count_served(monkeypatch) -> collections.Counter:
        """Bytes each provider serves, by name, from now on."""
        served = collections.Counter()
        get_page = Provider.get_page

        def counted(self, *args):
            piece = get_page(self, *args)
            served[self.name] += len(piece)
            return piece

        monkeypatch.setattr(Provider, "get_page", counted)
        return served

    def test_reads_spread_over_replicas(self, monkeypatch):
        svc = self._everywhere_svc()
        c = svc.client("c")
        blob = c.create_blob()
        c.append(blob, b"z" * 1024)
        served = self._count_served(monkeypatch)
        for _ in range(16):
            c.read(blob, 0, 1024)
        # without rotation one provider would absorb every read
        assert len(served) > 1

    def test_rotation_phase_is_deterministic_per_client_name(self, monkeypatch):
        served = self._count_served(monkeypatch)
        hits_by_run = []
        for _run in range(2):
            svc = self._everywhere_svc()
            c = svc.client("same-name")
            blob = c.create_blob()
            c.append(blob, b"z" * 1024)
            served.clear()
            c.read(blob, 0, 1024)
            hits_by_run.append(sorted(served))
        assert hits_by_run[0] == hits_by_run[1]

    def test_dead_providers_remembered_until_they_serve_again(self):
        svc = self._everywhere_svc()
        c = svc.client("c")
        blob = c.create_blob()
        c.append(blob, b"z" * 1024)
        dead = "provider-002"
        svc.fail_provider(dead)
        for _ in range(8):  # enough reads that rotation would hit it
            c.read(blob, 0, 1024)
        assert dead in c._dead_providers
        # dead providers sort last, so recovery alone is not enough to be
        # re-probed — only when every other replica fails does the read
        # reach it, and a successful reply clears the grudge
        svc.recover_provider(dead)
        for name in svc.providers:
            if name != dead:
                svc.fail_provider(name)
        assert c.read(blob, 0, 1024) == b"z" * 1024
        assert dead not in c._dead_providers

"""Integration tests for the threaded BlobSeer deployment, driven
through ``engine.run`` of its protocol: append/write/read semantics,
versioning snapshots, concurrency, fault tolerance."""

import collections
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerService, Provider
from repro.common.config import BlobSeerConfig
from repro.common.errors import OutOfRangeReadError, ReplicationError
from repro.engine.base import Payload


@pytest.fixture()
def svc():
    return BlobSeerService(
        BlobSeerConfig(page_size=1024, metadata_providers=4),
        n_providers=6,
        seed=7,
    )


def append(svc, blob, data, client="c0"):
    """Append *data*; returns ``(version, offset)``."""
    return svc.engine.run(svc.protocol.update(client, blob, Payload(data)))[:2]


def write(svc, blob, offset, data, client="c0"):
    """Overwrite from *offset*; returns the new version."""
    return svc.engine.run(
        svc.protocol.update(client, blob, Payload(data), offset)
    )[0]


def read(svc, blob, offset, size, version=None, client="c0"):
    return svc.engine.run(
        svc.protocol.read(client, blob, offset, size, version=version)
    )[1]


def size(svc, blob, version=None):
    return svc.version_manager.resolve(blob, version)[0].size


class TestAppend:
    def test_append_returns_versions(self, svc):
        blob = svc.create_blob()
        assert append(svc, blob, b"x" * 10)[0] == 1
        assert append(svc, blob, b"y" * 10)[0] == 2
        assert size(svc, blob) == 20

    def test_append_with_offset(self, svc):
        blob = svc.create_blob()
        assert append(svc, blob, b"a" * 100) == (1, 0)
        assert append(svc, blob, b"b" * 100) == (2, 100)

    def test_multi_page_append(self, svc):
        blob = svc.create_blob()
        data = bytes(range(256)) * 20  # 5120 bytes = 5 pages
        append(svc, blob, data)
        assert read(svc, blob, 0, len(data)) == data

    def test_unaligned_appends_reassemble(self, svc):
        blob = svc.create_blob()
        pieces = [b"a" * 700, b"b" * 900, b"c" * 1500, b"d" * 64]
        for piece in pieces:
            append(svc, blob, piece)
        whole = b"".join(pieces)
        assert read(svc, blob, 0, len(whole)) == whole

    def test_empty_append_rejected(self, svc):
        blob = svc.create_blob()
        with pytest.raises(ValueError):
            append(svc, blob, b"")


class TestWrite:
    def test_overwrite_page_interior(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"a" * 3000)
        write(svc, blob, 1024, b"X" * 100)
        data = read(svc, blob, 0, 3000)
        assert data[:1024] == b"a" * 1024
        assert data[1024:1124] == b"X" * 100
        assert data[1124:] == b"a" * 1876

    def test_overwrite_extends_size(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"a" * 1024)
        write(svc, blob, 1024, b"b" * 500)
        assert size(svc, blob) == 1524

    def test_unaligned_write_rejected(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"a" * 2048)
        with pytest.raises(ValueError):
            write(svc, blob, 100, b"x")


class TestVersioning:
    def test_snapshots_immutable(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"1" * 1000)
        append(svc, blob, b"2" * 1000)
        write(svc, blob, 0, b"Z" * 1000)
        assert read(svc, blob, 0, 1000, version=1) == b"1" * 1000
        assert read(svc, blob, 0, 2000, version=2) == b"1" * 1000 + b"2" * 1000
        assert read(svc, blob, 0, 1000, version=3) == b"Z" * 1000

    def test_latest_version(self, svc):
        blob = svc.create_blob()
        latest = svc.version_manager.latest_published
        assert latest(blob).version == 0
        append(svc, blob, b"x")
        assert latest(blob).version == 1

    def test_version_sizes(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 10)
        append(svc, blob, b"y" * 20)
        assert size(svc, blob, version=1) == 10
        assert size(svc, blob, version=2) == 30


class TestReads:
    def test_read_beyond_size_raises(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 100)
        with pytest.raises(OutOfRangeReadError):
            read(svc, blob, 50, 100)

    def test_zero_size_read(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 100)
        assert read(svc, blob, 100, 0) == b""
        with pytest.raises(OutOfRangeReadError):
            read(svc, blob, 101, 0)

    def test_cross_page_read(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"a" * 1024 + b"b" * 1024)
        assert read(svc, blob, 1000, 48) == b"a" * 24 + b"b" * 24


class TestLayout:
    def test_layout_covers_blob(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 2500)
        layout = svc.layout(blob)
        assert sum(length for _o, length, _p in layout) == 2500
        assert all(providers for _o, _l, providers in layout)
        offsets = [offset for offset, _l, _p in layout]
        assert offsets == sorted(offsets)

    def test_layout_empty_blob(self, svc):
        blob = svc.create_blob()
        assert svc.layout(blob) == []

    def test_layout_versioned(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 1000)
        append(svc, blob, b"y" * 1000)
        v1 = svc.layout(blob, version=1)
        assert sum(length for _o, length, _p in v1) == 1000


class TestConcurrency:
    def test_concurrent_appends_all_land_intact(self, svc):
        blob = svc.create_blob()
        n = 24
        payloads = {i: bytes([0x30 + i % 64]) * (333 + 61 * i) for i in range(n)}
        results = {}

        def worker(i):
            results[i] = append(svc, blob, payloads[i], client=f"w{i}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(len(p) for p in payloads.values())
        assert size(svc, blob) == total
        whole = read(svc, blob, 0, total, client="reader")
        # each payload sits exactly at its assigned offset
        for i, (version, offset) in results.items():
            assert whole[offset : offset + len(payloads[i])] == payloads[i]
        assert sorted(v for v, _o in results.values()) == list(range(1, n + 1))

    def test_concurrent_readers_during_appends(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"base" * 300, client="writer")
        stop = threading.Event()
        errors = []

        def reader_loop():
            try:
                while not stop.is_set():
                    n = min(size(svc, blob), 1200)
                    assert read(svc, blob, 0, n, client="r")[:4] == b"base"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader_loop) for _ in range(3)]
        for t in readers:
            t.start()
        for i in range(10):
            append(svc, blob, bytes([i]) * 500, client="writer")
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
        blob = svc.create_blob()
        append(svc, blob, b"precious" * 200)
        primary = svc.layout(blob)[0][2][0]
        svc.fail_provider(primary)
        assert read(svc, blob, 0, 1600) == (b"precious" * 200)[:1600]

    def test_unreplicated_read_fails_after_crash(self, svc):
        blob = svc.create_blob()
        append(svc, blob, b"x" * 100)
        holder = svc.layout(blob)[0][2][0]
        svc.fail_provider(holder)
        with pytest.raises(ReplicationError, match=r"no replica of page PageId"):
            read(svc, blob, 0, 100)
        svc.recover_provider(holder)
        assert read(svc, blob, 0, 100) == b"x" * 100

    def test_write_routes_around_failed_provider(self, svc):
        svc.fail_provider("provider-000")
        svc.fail_provider("provider-001")
        blob = svc.create_blob()
        append(svc, blob, b"y" * 5000)
        assert read(svc, blob, 0, 5000) == b"y" * 5000
        for _o, _l, providers in svc.layout(blob):
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
    blob = svc.create_blob()
    expected = bytearray()
    for i, n in enumerate(pieces):
        piece = bytes([(i * 37 + 11) % 256]) * n
        append(svc, blob, piece)
        expected += piece
    assert read(svc, blob, 0, len(expected)) == bytes(expected)


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
        blob = svc.create_blob()
        append(svc, blob, b"z" * 1024)
        served = self._count_served(monkeypatch)
        for _ in range(16):
            read(svc, blob, 0, 1024)
        # without rotation one provider would absorb every read
        assert len(served) > 1

    def test_rotation_phase_is_deterministic_per_client_name(self, monkeypatch):
        served = self._count_served(monkeypatch)
        hits_by_run = []
        for _run in range(2):
            svc = self._everywhere_svc()
            blob = svc.create_blob()
            append(svc, blob, b"z" * 1024, client="same-name")
            served.clear()
            read(svc, blob, 0, 1024, client="same-name")
            hits_by_run.append(sorted(served))
        assert hits_by_run[0] == hits_by_run[1]

    def test_dead_providers_remembered_until_they_serve_again(self):
        svc = self._everywhere_svc()
        blob = svc.create_blob()
        append(svc, blob, b"z" * 1024)
        dead = "provider-002"
        svc.fail_provider(dead)
        for _ in range(8):  # enough reads that rotation would hit it
            read(svc, blob, 0, 1024)
        remembered = svc.protocol.selector("c0").dead
        assert dead in remembered
        # dead providers sort last, so recovery alone is not enough to be
        # re-probed — only when every other replica fails does the read
        # reach it, and a successful reply clears the grudge
        svc.recover_provider(dead)
        for name in svc.providers:
            if name != dead:
                svc.fail_provider(name)
        assert read(svc, blob, 0, 1024) == b"z" * 1024
        assert dead not in remembered

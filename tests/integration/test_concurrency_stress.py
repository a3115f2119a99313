"""Concurrency stress: mixed appenders/overwriters/readers hammering one
BLOB and one BSFS file, validated against per-version oracles."""

import threading

import pytest

from repro.blobseer import BlobSeerService
from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.engine.base import Payload


class TestBlobLevelStress:
    def test_mixed_appends_and_overwrites_with_version_oracle(self):
        """Replay the published version chain against a byte-array oracle:
        every published version must read back exactly as the serialized
        (by VM order) application of its updates."""
        svc = BlobSeerService(
            BlobSeerConfig(page_size=256, metadata_providers=3),
            n_providers=5,
            seed=11,
        )
        blob = svc.create_blob()
        n_workers = 10
        ops_per_worker = 6
        records = {}  # version -> (offset, payload)
        lock = threading.Lock()

        def worker(wid: int) -> None:
            for k in range(ops_per_worker):
                payload = bytes([32 + (wid * 7 + k) % 90]) * (100 + 40 * k)
                if (wid + k) % 3 == 0:
                    # overwrite a page-aligned prefix region
                    payload = payload[:256]
                    update = svc.protocol.update(f"w{wid}", blob, Payload(payload), 0)
                else:
                    update = svc.protocol.update(f"w{wid}", blob, Payload(payload))
                version, offset, _group_end = svc.engine.run(update)
                with lock:
                    records[version] = (offset, payload)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        latest = svc.version_manager.latest_published(blob).version
        assert latest == n_workers * ops_per_worker
        # rebuild every version with a byte-array oracle and spot-check
        oracle = bytearray()
        for version in range(1, latest + 1):
            offset, payload = records[version]
            end = offset + len(payload)
            if end > len(oracle):
                oracle.extend(b"\0" * (end - len(oracle)))
            oracle[offset:end] = payload
            if version % 7 == 0 or version == latest:  # spot-check some
                _v, got = svc.engine.run(
                    svc.protocol.read("oracle", blob, 0, len(oracle), version=version)
                )
                assert got == bytes(oracle), f"version {version} corrupt"

    def test_many_small_appends_version_count(self):
        svc = BlobSeerService(
            BlobSeerConfig(page_size=128, metadata_providers=2),
            n_providers=3,
        )
        blob = svc.create_blob()

        def worker(wid):
            for _ in range(20):
                svc.engine.run(
                    svc.protocol.update(f"w{wid}", blob, Payload(b"%02d" % wid))
                )

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert svc.version_manager.latest_published(blob).version == 160
        _v, data = svc.engine.run(svc.protocol.read("r", blob, 0, 320))
        assert len(data) == 320
        # each worker's tag appears exactly 20 times
        for w in range(8):
            assert data.count(b"%02d" % w) == 20


class TestFileLevelStress:
    def test_appenders_plus_tailing_readers(self):
        """Readers tail a BSFS file while 8 appenders grow it; every
        observed prefix must be a prefix of the final content."""
        dep = BSFS(
            config=BlobSeerConfig(page_size=512, metadata_providers=3),
            n_providers=5,
        )
        dep.file_system("setup").create("/stress").close()
        stop = threading.Event()
        snapshots = []
        errors = []

        def tailer():
            fs = dep.file_system("tail")
            try:
                while not stop.is_set():
                    st = fs.get_status("/stress")
                    if st.size:
                        snapshots.append(fs.open("/stress").pread(0, st.size))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def appender(wid):
            fs = dep.file_system(f"a{wid}")
            with fs.append("/stress") as out:
                for k in range(10):
                    out.write(b"<%d:%d>" % (wid, k))
                    out.flush()

        tail_threads = [threading.Thread(target=tailer) for _ in range(2)]
        app_threads = [threading.Thread(target=appender, args=(w,)) for w in range(8)]
        for t in tail_threads + app_threads:
            t.start()
        for t in app_threads:
            t.join()
        stop.set()
        for t in tail_threads:
            t.join()
        assert errors == []
        final = dep.file_system("final").read_all("/stress")
        # every flushed record is intact in the final file
        for w in range(8):
            for k in range(10):
                assert b"<%d:%d>" % (w, k) in final
        # snapshots are consistent prefixes (monotone file growth)
        for snap in snapshots:
            assert final.startswith(snap)

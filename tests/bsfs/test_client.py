"""Integration tests for BSFS: the FileSystem facade with working append."""

import threading

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.errors import (
    FileAlreadyExistsError,
    FileClosedError,
    FileNotFoundInNamespaceError,
)


@pytest.fixture()
def dep():
    return BSFS(
        config=BlobSeerConfig(page_size=1024, metadata_providers=4),
        n_providers=6,
        seed=5,
    )


@pytest.fixture()
def fs(dep):
    return dep.file_system("c0")


class TestBasics:
    def test_create_write_read(self, fs):
        fs.write_all("/d/f", b"hello bsfs" * 200)
        assert fs.read_all("/d/f") == b"hello bsfs" * 200
        assert fs.get_status("/d/f").size == 2000

    def test_exclusive_create(self, fs):
        fs.write_all("/f", b"1")
        with pytest.raises(FileAlreadyExistsError):
            fs.create("/f")
        fs.write_all("/f", b"2", overwrite=True)
        assert fs.read_all("/f") == b"2"

    def test_namespace_ops(self, fs):
        fs.mkdirs("/a/b")
        assert fs.exists("/a/b")
        fs.write_all("/a/b/f", b"x")
        assert [s.path for s in fs.list_dir("/a/b")] == ["/a/b/f"]
        fs.rename("/a/b/f", "/a/g")
        assert fs.read_all("/a/g") == b"x"
        assert fs.delete("/a", recursive=True)
        assert not fs.exists("/a")

    def test_open_missing(self, fs):
        with pytest.raises(FileNotFoundInNamespaceError):
            fs.open("/ghost")

    def test_closed_stream_rejects_io(self, fs):
        out = fs.create("/f")
        out.close()
        with pytest.raises(FileClosedError):
            out.write(b"late")
        s = fs.open("/f")
        s.close()
        with pytest.raises(FileClosedError):
            s.read(1)


class TestAppendStreams:
    def test_append_extends_file(self, fs):
        fs.write_all("/log", b"first|")
        with fs.append("/log") as out:
            out.write(b"second|")
        with fs.append("/log") as out:
            out.write(b"third")
        assert fs.read_all("/log") == b"first|second|third"

    def test_concurrent_appenders_one_file(self, dep):
        fs0 = dep.file_system("creator")
        fs0.create("/shared").close()
        n = 12
        payloads = {i: bytes([0x61 + i]) * (200 + i * 97) for i in range(n)}

        def appender(i):
            afs = dep.file_system(f"a{i}")
            with afs.append("/shared") as out:
                out.write(payloads[i])

        threads = [threading.Thread(target=appender, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        data = fs0.read_all("/shared")
        assert len(data) == sum(len(p) for p in payloads.values())
        for p in payloads.values():
            assert p in data  # each output intact and contiguous

    def test_write_behind_batches_appends(self, dep):
        fs = dep.file_system("c")
        with fs.create("/f") as out:
            for _ in range(10):
                out.write(b"x" * 300)  # 3000B over 1024B blocks
            issued_during_writes = out.appends_issued
        assert issued_during_writes <= 3
        assert fs.get_status("/f").size == 3000

    def test_cache_disabled_appends_per_write(self):
        dep = BSFS(
            config=BlobSeerConfig(
                page_size=1024, metadata_providers=2, cache_enabled=False
            ),
            n_providers=3,
        )
        fs = dep.file_system("c")
        with fs.create("/f") as out:
            out.write(b"a" * 10)
            out.write(b"b" * 10)
            assert out.appends_issued == 2

    def test_flush_publishes_partial_block(self, dep):
        """Unlike HDFS, BSFS can make a partial block visible on demand —
        the HBase transaction-log use case."""
        fs = dep.file_system("hbase")
        out = fs.create("/wal")
        out.write(b"txn1;")
        assert fs.get_status("/wal").size == 0  # still buffered
        out.flush()
        assert fs.get_status("/wal").size == 5
        reader = dep.file_system("recovery")
        assert reader.read_all("/wal") == b"txn1;"
        out.write(b"txn2;")
        out.close()
        assert reader.read_all("/wal") == b"txn1;txn2;"

    def test_discard_drops_buffered_data(self, fs):
        fs.create("/f").close()
        out = fs.append("/f")
        out.write(b"doomed")
        out.discard()
        assert fs.get_status("/f").size == 0


class TestReadStreams:
    def test_sequential_and_positional(self, fs):
        fs.write_all("/f", bytes(range(256)) * 10)
        with fs.open("/f") as s:
            assert s.read(4) == bytes([0, 1, 2, 3])
            assert s.tell() == 4
            assert s.pread(1000, 4) == bytes([232, 233, 234, 235])
            assert s.tell() == 4  # pread does not move the cursor
            s.seek(2550)
            assert s.read(100) == bytes(range(246, 256))  # clipped at EOF

    def test_prefetch_amortizes_small_reads(self, fs):
        fs.write_all("/f", b"z" * 3000)
        with fs.open("/f") as s:
            for off in range(0, 3000, 64):
                s.pread(off, 64)
            assert s.fetches <= 4  # one per 1024B block (+ tail growth)

    def test_reader_follows_growing_file(self, dep):
        fs = dep.file_system("r")
        fs.create("/grow").close()
        writer = dep.file_system("w")
        stream = fs.open("/grow")
        assert stream.read(10) == b""
        with writer.append("/grow") as out:
            out.write(b"fresh data")
        assert stream.pread(0, 10) == b"fresh data"

    def test_tail_block_refetched_after_growth(self, dep):
        fs = dep.file_system("r")
        fs.write_all("/f", b"a" * 100)  # partial block
        stream = fs.open("/f")
        assert stream.pread(0, 100) == b"a" * 100
        with dep.file_system("w").append("/f") as out:
            out.write(b"b" * 100)
        assert stream.pread(50, 150) == b"a" * 50 + b"b" * 100


class TestLocality:
    def test_block_locations_cover_file(self, fs):
        fs.write_all("/f", b"q" * 5000)
        locs = fs.get_block_locations("/f", 0, 5000)
        assert sum(l.length for l in locs) == 5000
        assert all(l.hosts for l in locs)

    def test_block_locations_range_filter(self, fs):
        fs.write_all("/f", b"q" * 5000)
        locs = fs.get_block_locations("/f", 2048, 100)
        assert all(
            l.offset < 2148 and l.offset + l.length > 2048 for l in locs
        )

    def test_locations_clipped_to_namespace_size(self, dep):
        """A reader must never be told about bytes past the file size."""
        fs = dep.file_system("c")
        fs.write_all("/f", b"x" * 100)
        locs = fs.get_block_locations("/f", 0, 10_000)
        assert sum(l.length for l in locs) == 100

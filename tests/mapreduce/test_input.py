"""Unit + property tests for input splitting and record reading —
the Hadoop line-boundary semantics (no record lost, none read twice)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig, HDFSConfig
from repro.hdfs import HDFSCluster
from repro.mapreduce.io import input as input_mod
from repro.mapreduce.io.input import (
    FileSplit,
    KeyValueLineRecordReader,
    LineRecordReader,
    compute_splits,
    make_record_reader,
)


def make_fs(chunk=256):
    cluster = HDFSCluster(n_datanodes=3, config=HDFSConfig(chunk_size=chunk), seed=4)
    return cluster.file_system()


class TestComputeSplits:
    def test_block_sized_splits(self):
        fs = make_fs(chunk=256)
        fs.write_all("/f", b"x" * 1000)
        splits = compute_splits(fs, ["/f"])
        assert [s.length for s in splits] == [256, 256, 256, 232]
        assert all(s.hosts for s in splits)

    def test_explicit_split_size(self):
        fs = make_fs()
        fs.write_all("/f", b"x" * 1000)
        splits = compute_splits(fs, ["/f"], split_size=500)
        assert [s.length for s in splits] == [500, 500]

    def test_empty_file_no_splits(self):
        fs = make_fs()
        fs.create("/f").close()
        assert compute_splits(fs, ["/f"]) == []

    def test_directory_expands_to_files(self):
        fs = make_fs()
        fs.write_all("/d/a", b"x" * 100)
        fs.write_all("/d/b", b"y" * 100)
        splits = compute_splits(fs, ["/d"])
        assert sorted({s.path for s in splits}) == ["/d/a", "/d/b"]

    def test_hosts_ranked_by_overlap(self):
        fs = make_fs(chunk=256)
        fs.write_all("/f", b"x" * 1000)
        for split in compute_splits(fs, ["/f"]):
            locs = fs.get_block_locations("/f", split.offset, split.length)
            assert set(split.hosts) == {h for l in locs for h in l.hosts}


class TestLineReader:
    def read_all_splits(self, fs, path, split_size):
        size = fs.file_size(path)
        records = []
        offset = 0
        while offset < size:
            length = min(split_size, size - offset)
            split = FileSplit(path, offset, length)
            records.extend(LineRecordReader(fs, split))
            offset += length
        return records

    def test_single_split_reads_everything(self):
        fs = make_fs()
        fs.write_all("/f", b"aa\nbb\ncc\n")
        records = list(LineRecordReader(fs, FileSplit("/f", 0, 9)))
        assert records == [(0, b"aa"), (3, b"bb"), (6, b"cc")]

    def test_no_trailing_newline(self):
        fs = make_fs()
        fs.write_all("/f", b"aa\nbb")
        records = list(LineRecordReader(fs, FileSplit("/f", 0, 5)))
        assert records == [(0, b"aa"), (3, b"bb")]

    def test_boundary_mid_line(self):
        fs = make_fs()
        fs.write_all("/f", b"aaaa\nbbbb\n")
        first = list(LineRecordReader(fs, FileSplit("/f", 0, 7)))
        second = list(LineRecordReader(fs, FileSplit("/f", 7, 3)))
        assert first == [(0, b"aaaa"), (5, b"bbbb")]
        assert second == []

    def test_boundary_exactly_at_line_start(self):
        fs = make_fs()
        fs.write_all("/f", b"aaaa\nbbbb\n")
        first = list(LineRecordReader(fs, FileSplit("/f", 0, 5)))
        second = list(LineRecordReader(fs, FileSplit("/f", 5, 5)))
        # the line starting exactly at the boundary belongs to the FIRST
        # split (Hadoop's pos <= end rule); the second split skips it
        assert first == [(0, b"aaaa"), (5, b"bbbb")]
        assert second == []

    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.lists(
            st.binary(
                min_size=0, max_size=30
            ).filter(lambda b: b"\n" not in b),
            min_size=1,
            max_size=30,
        ),
        split_size=st.integers(min_value=1, max_value=64),
        trailing_newline=st.booleans(),
    )
    def test_exactly_once_property(self, lines, split_size, trailing_newline):
        """Every line is read by exactly one split, in order."""
        payload = b"\n".join(lines) + (b"\n" if trailing_newline else b"")
        if not payload:
            return
        fs = make_fs()
        fs.write_all("/f", payload)
        records = self.read_all_splits(fs, "/f", split_size)
        expected = payload.split(b"\n")
        if payload.endswith(b"\n"):
            expected = expected[:-1]
        assert [r[1] for r in records] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.lists(st.binary(max_size=12).filter(lambda b: b"\n" not in b),
                       min_size=1, max_size=20),
        split_size=st.integers(min_value=1, max_value=40),
        chunk=st.integers(min_value=1, max_value=8),
    )
    def test_lines_straddling_reads(self, lines, split_size, chunk):
        """Lines cut across the reader's pread pieces come out whole."""
        payload = b"\n".join(lines) + b"\n"
        fs = make_fs()
        fs.write_all("/f", payload)
        with mock.patch.object(input_mod, "_IO_CHUNK", chunk):
            records = self.read_all_splits(fs, "/f", split_size)
        starts = [0]
        for line in lines[:-1]:
            starts.append(starts[-1] + len(line) + 1)
        assert records == list(zip(starts, lines))


class TestReadCost:
    def test_whole_file_split_fetches_each_page_about_once(self):
        """The reader cuts lines from one buffer: reading a split costs
        about one block fetch per page, not one read per line."""
        page = 4096
        dep = BSFS(
            config=BlobSeerConfig(page_size=page, metadata_providers=2),
            n_providers=3,
            seed=1,
        )
        fs = dep.file_system("r")
        payload = b"".join(b"%09d\n" % i for i in range(1600))
        fs.write_all("/f", payload)
        pages = -(-len(payload) // page)
        assert pages == 4
        records = list(LineRecordReader(fs, FileSplit("/f", 0, len(payload))))
        assert len(records) == 1600
        assert records[-1] == (len(payload) - 10, b"%09d" % 1599)
        assert dep.metrics.counters["bsfs.cache.misses"] <= pages + 1


class TestKeyValueReader:
    def test_tab_separation(self):
        fs = make_fs()
        fs.write_all("/f", b"k1\tv1\nk2\tv2 with\ttabs\nplain\n")
        records = list(KeyValueLineRecordReader(fs, FileSplit("/f", 0, 28)))
        assert records == [
            (b"k1", b"v1"),
            (b"k2", b"v2 with\ttabs"),
            (b"plain", b""),
        ]


def test_make_record_reader_dispatch():
    fs = make_fs()
    fs.write_all("/f", b"a\tb\n")
    split = FileSplit("/f", 0, 4)
    assert isinstance(make_record_reader(fs, split, "text"), LineRecordReader)
    assert isinstance(make_record_reader(fs, split, "kv"), KeyValueLineRecordReader)
    with pytest.raises(ValueError):
        make_record_reader(fs, split, "avro")

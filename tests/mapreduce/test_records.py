"""Unit tests for record writers and job-model pieces not covered
elsewhere (Counters, Context, JobResult)."""

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.mapreduce.io.records import TextRecordWriter, to_bytes
from repro.mapreduce.job import Context, Counters, JobResult, default_partitioner


@pytest.fixture()
def fs():
    return BSFS(
        config=BlobSeerConfig(page_size=1024, metadata_providers=2), n_providers=3
    ).file_system()


class TestToBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (b"raw", b"raw"),
            ("text", b"text"),
            (42, b"42"),
            (3.5, b"3.5"),
            ((b"a", 1), b"(b'a', 1)"),
        ],
    )
    def test_conversions(self, value, expected):
        assert to_bytes(value) == expected


class TestTextRecordWriter:
    def test_tab_newline_framing(self, fs):
        stream = fs.create("/out")
        writer = TextRecordWriter(stream)
        writer.write(b"key", 7)
        writer.write("word", "count")
        writer.close()
        assert fs.read_all("/out") == b"key\t7\nword\tcount\n"
        assert writer.records == 2
        assert writer.bytes_written == len(b"key\t7\nword\tcount\n")


class TestCounters:
    def test_merge_adds_counts(self):
        totals, attempt = Counters(), Counters()
        totals.increment("a", 2)
        attempt.increment("a", 3)
        attempt.increment("b")
        totals.merge(attempt)
        assert totals.snapshot() == {"a": 5, "b": 1}
        assert attempt.snapshot() == {"a": 3, "b": 1}

    def test_snapshot_is_copy(self):
        counters = Counters()
        counters.increment("a", 5)
        snap = counters.snapshot()
        counters.increment("a", 5)
        assert snap == {"a": 5}


class TestContext:
    def test_unbound_emit_fails(self):
        ctx = Context(Counters())
        with pytest.raises(AssertionError):
            ctx.emit(b"k", 1)

    def test_write_is_emit(self):
        ctx = Context(Counters())
        got = []
        ctx._bind(lambda k, v: got.append((k, v)))
        ctx.write(b"k", 1)
        ctx.emit(b"k2", 2)
        assert got == [(b"k", 1), (b"k2", 2)]


class TestDefaultPartitioner:
    def test_in_range_and_stable(self):
        for key in (b"x", "word", 123):
            p = default_partitioner(key, 7)
            assert 0 <= p < 7
            assert p == default_partitioner(key, 7)


class TestJobResult:
    def test_output_file_count(self):
        result = JobResult(
            job_name="j",
            output_files=["/out/a", "/out/b"],
            counters={},
            n_map_tasks=3,
            n_reduce_tasks=2,
            elapsed_seconds=1.0,
        )
        assert result.output_file_count == 2

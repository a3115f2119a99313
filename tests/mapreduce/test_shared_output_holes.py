"""A reducer that dies holding its append ticket leaves a hole in the
shared output file; the readers of a shared output skip it.

The steps: 4 KiB pages and a 0.3 s append lease; r0 appends ``first
line\\n``; a second reducer takes a 12-byte ticket and dies; r1 appends
``second line\\n``, which waits out the lease and lands at offset 23.
Bytes ``[11, 23)`` of the 35-byte file then belong to no committed
version. ``LineRecordReader`` and the pipeline feeder's newline scan
skip that extent, as record-append readers skip padding; a plain read
still raises on it.
"""

import pytest

from repro.bsfs.client import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.errors import PageNotFoundError
from repro.mapreduce.io.input import FileSplit, LineRecordReader
from repro.mapreduce.pipeline import _last_newline

PATH = "/job/out/shared"
FIRST, SECOND = b"first line\n", b"second line\n"


@pytest.fixture(
    scope="module", params=[True, False], ids=["block-cache", "no-cache"]
)
def holed(request):
    bsfs = BSFS(
        config=BlobSeerConfig(
            page_size=4096, append_lease_s=0.3, cache_enabled=request.param
        ),
        n_providers=4,
    )
    r0, r1 = bsfs.file_system("r0"), bsfs.file_system("r1")
    with r0.create(PATH) as out:
        out.write(FIRST)
    blob = bsfs.namespace.get(PATH).blob_id
    dead = bsfs.service.version_manager.assign_append(blob, 12)
    assert dead.offset == len(FIRST)
    with r1.append(PATH) as out:
        out.write(SECOND)
    assert r1.get_status(PATH).size == 35
    yield r1
    bsfs.service.close()


def lines(fs, offset, end):
    return list(LineRecordReader(fs, FileSplit(PATH, offset, end - offset)))


def test_the_line_reader_skips_the_dead_reducers_range(holed):
    assert [line for _, line in lines(holed, 0, 35)] == [
        b"first line",
        b"second line",
    ]
    assert lines(holed, 0, 35) == [(0, b"first line"), (23, b"second line")]


@pytest.mark.parametrize("cut", range(1, 35))
def test_every_split_point_reads_each_line_once(holed, cut):
    """Two splits cut anywhere — before, inside or after the hole — read
    each line exactly once between them."""
    assert lines(holed, 0, cut) + lines(holed, cut, 35) == [
        (0, b"first line"),
        (23, b"second line"),
    ]


def test_a_plain_read_still_raises(holed):
    with holed.open(PATH) as stream:
        with pytest.raises(PageNotFoundError, match=r"hole in page 0 at \[11, 23\)"):
            stream.pread(0, 35)
        data, holes = stream.pread_holes(0, 35)
        assert data == FIRST + bytes(12) + SECOND
        assert holes == [(11, 23)]
        # bytes around the hole read plainly
        assert stream.pread_holes(23, 12) == (SECOND, [])
        assert stream.pread_holes(13, 4) == (bytes(4), [(13, 17)])


@pytest.mark.parametrize(
    "offset, n, expected",
    [(0, 11, FIRST), (23, 12, SECOND), (3, 8, FIRST[3:]), (25, 10, SECOND[2:])],
    ids=["first", "second", "in-first", "in-second"],
)
def test_a_plain_read_beside_the_hole_returns_the_bytes(holed, offset, n, expected):
    """The block holding the hole is cached with its extents: a plain
    read whose own range misses the hole gets its bytes, however the
    block was first fetched."""
    with holed.open(PATH) as stream:
        assert stream.pread(offset, n) == expected
        # after the block is cached, by a hole-reporting read
        assert stream.pread_holes(0, 35)[1] == [(11, 23)]
        assert stream.pread(offset, n) == expected
        with pytest.raises(PageNotFoundError, match=r"hole in page 0 at \[11, 23\)"):
            stream.pread(0, 35)
        with pytest.raises(PageNotFoundError, match=r"hole in page 0 at \[12, 14\)"):
            stream.pread(12, 2)
        assert stream.pread(offset, n) == expected


def test_the_feeder_scan_finds_the_last_newline_past_the_hole(holed):
    with holed.open(PATH) as stream:
        assert _last_newline(stream, 0, 35) == 34
        assert _last_newline(stream, 0, 23) == 10
        assert _last_newline(stream, 12, 23) == 12

"""Input formats: splitting files and reading records from splits.

Faithful to Hadoop's ``TextInputFormat`` semantics:

* splits are block-sized byte ranges annotated with the hosts storing
  them (from :meth:`~repro.common.fs.FileSystem.get_block_locations`),
  which is what the locality-aware scheduler consumes;
* a record (line) belongs to the split in which it *starts*: a reader
  skips the first partial line (unless at offset 0) and reads past its
  split's end to finish the last line it started.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ...common.fs import FileSystem, InputStream

#: readers scan in pieces of this size
_IO_CHUNK = 256 * 1024


@dataclass(frozen=True, slots=True)
class FileSplit:
    """One map task's slice of one input file."""

    path: str
    offset: int
    length: int
    hosts: Tuple[str, ...] = ()

    @property
    def end(self) -> int:
        return self.offset + self.length


def compute_splits(
    fs: FileSystem,
    paths: List[str],
    split_size: Optional[int] = None,
) -> List[FileSplit]:
    """Block-aligned splits for every input file, with storage hosts.

    *split_size* defaults to each file's block size (so "the Hadoop
    framework starts a mapper to process each input chunk").
    """
    splits: List[FileSplit] = []
    for path in paths:
        status = fs.get_status(path)
        if status.is_directory:
            children = [s.path for s in fs.list_dir(path) if not s.is_directory]
            splits.extend(compute_splits(fs, children, split_size))
            continue
        if status.size == 0:
            continue
        size = split_size or status.block_size or status.size
        if size <= 0:
            size = status.size
        splits.extend(range_splits(fs, path, 0, status.size, size))
    return splits


def range_splits(
    fs: FileSystem, path: str, offset: int, end: int, split_size: int
) -> List[FileSplit]:
    """Splits of at most *split_size* bytes covering ``[offset, end)`` of
    *path*, with the hosts storing each."""
    locations = fs.get_block_locations(path, offset, end - offset)
    splits: List[FileSplit] = []
    while offset < end:
        length = min(split_size, end - offset)
        hosts = _hosts_for_range(locations, offset, length)
        splits.append(FileSplit(path, offset, length, hosts))
        offset += length
    return splits


def _hosts_for_range(locations, offset: int, length: int) -> Tuple[str, ...]:
    """Hosts storing the block(s) overlapping the split, majority first."""
    tally: dict[str, int] = {}
    for loc in locations:
        if loc.offset + loc.length > offset and loc.offset < offset + length:
            overlap = min(loc.offset + loc.length, offset + length) - max(
                loc.offset, offset
            )
            for host in loc.hosts:
                tally[host] = tally.get(host, 0) + overlap
    ordered = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(host for host, _n in ordered)


class LineRecordReader:
    """Iterate the lines belonging to one split (Hadoop line semantics).

    Yields ``(byte_offset, line_without_newline)`` pairs — the key/value
    contract of ``TextInputFormat``.
    """

    def __init__(self, fs: FileSystem, split: FileSplit) -> None:
        self.fs = fs
        self.split = split

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        split = self.split
        with self.fs.open(split.path) as stream:
            # past offset 0, skip the partial first line: it belongs to
            # the previous split (with no newline until EOF, nothing
            # starts here)
            yield from _lines(stream, split.offset, split.end, split.offset > 0)


def _lines(
    stream: InputStream, offset: int, end: int, skip_first: bool
) -> Iterator[Tuple[int, bytes]]:
    """``(start, line)`` for every line from *offset* that starts at or
    before *end*, newline stripped, but the first one if *skip_first*;
    a trailing line without a final newline comes as-is.

    That is Hadoop's boundary rule: a line starting exactly at a split
    boundary belongs to the earlier split, matching the skip rule of the
    later one, so no line is lost or read twice.

    A hole in a shared file (see :meth:`InputStream.pread_holes`) is
    skipped the way record-append readers skip padding: it ends the line
    before it as a newline on its last byte would, and a line that is
    only hole is not yielded, though it is the one *skip_first* drops
    when the split starts inside it.

    One buffer is cut into lines; the next ``_IO_CHUNK`` is read only
    when a line crosses the buffer's end, so every byte is read once.
    """
    buf = b""
    pos = offset  # file offset of buf[0], where the next line starts
    at = offset  # file offset of the next read
    while pos <= end:
        piece, holes = stream.pread_holes(at, _IO_CHUNK)
        if not piece:
            if buf and not skip_first:
                yield pos, buf
            return
        seg = 0  # where the piece's next run of bytes starts
        for hole_lo, hole_hi in [*holes, (at + len(piece), None)]:
            buf += piece[seg : hole_lo - at]
            cut = 0
            while (nl := buf.find(b"\n", cut)) >= 0 and pos + cut <= end:
                if skip_first:
                    skip_first = False
                else:
                    yield pos + cut, buf[cut:nl]
                cut = nl + 1
            buf = buf[cut:]
            pos += cut
            if hole_hi is None or pos > end:
                break
            if skip_first:
                skip_first = False
            elif buf:
                yield pos, buf
            buf, pos, seg = b"", hole_hi, hole_hi - at
        at += len(piece)


class KeyValueLineRecordReader:
    """Tab-separated key/value lines (Hadoop's ``KeyValueTextInputFormat``).

    Yields ``(key, value)`` byte pairs; a line without a tab yields the
    whole line as key and ``b""`` as value.
    """

    def __init__(self, fs: FileSystem, split: FileSplit) -> None:
        self._inner = LineRecordReader(fs, split)

    def __iter__(self) -> Iterator[Tuple[bytes, bytes]]:
        for _offset, line in self._inner:
            tab = line.find(b"\t")
            if tab < 0:
                yield line, b""
            else:
                yield line[:tab], line[tab + 1 :]


def make_record_reader(
    fs: FileSystem, split: FileSplit, input_format: str
):
    """Reader factory keyed by :attr:`JobConf.input_format`."""
    if input_format == "text":
        return LineRecordReader(fs, split)
    if input_format == "kv":
        return KeyValueLineRecordReader(fs, split)
    raise ValueError(f"unknown input format {input_format!r}")

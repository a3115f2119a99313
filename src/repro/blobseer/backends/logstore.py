"""The log-structured backend — the BerkeleyDB substitute.

An append-only log of CRC-framed key/value records plus an in-memory
offset index, rebuilt on open by replaying the log through
:func:`~repro.common.crc.decode_record`. Pages are immutable and never
deleted, so an overwrite is the only record a later one supersedes.

The index holds one int per record, ``offset << 32 | length`` (see
:func:`_entry`): with its key, about 107 B per 4 KiB record where an
``(offset, length)`` tuple cost 191 B (CPython 3.11, tracemalloc). A
record too long for the 32-bit length field raises instead of aliasing
its neighbour's bytes.
"""

from __future__ import annotations

import mmap
import os
import threading
from pathlib import Path
from typing import Dict, Optional

from ...common.crc import decode_record, encode_record
from ...common.errors import CorruptPageError, PageNotFoundError

#: marker byte every record's value starts with
_LIVE = b"\x01"

#: an index entry's low field: the record's length
_LENGTH_BITS = 32
_LENGTH_MASK = (1 << _LENGTH_BITS) - 1


def _entry(offset: int, length: int) -> int:
    """The index entry of the record of *length* bytes at *offset*."""
    if not 0 < length <= _LENGTH_MASK:
        raise ValueError(f"log record of {length} bytes does not fit the index")
    return offset << _LENGTH_BITS | length


class _Generation:
    """The log as readers see it: its key index and a read descriptor
    on it. :meth:`LogStructuredPageStore.close` drops the store's
    reference; the descriptor closes when the last get holding the
    generation lets go of it, so a get racing ``close`` never reads
    through a closed (or reused) descriptor."""

    __slots__ = ("index", "fd")

    def __init__(self, index: Dict[bytes, int], path: Path) -> None:
        self.index = index  # key -> _entry(offset, length)
        self.fd = os.open(path, os.O_RDONLY)

    def __del__(self, _close=os.close) -> None:
        _close(self.fd)


class LogStructuredPageStore:
    """Durable store: one append-only log file + in-memory offset index.

    Record layout (see :mod:`repro.common.crc`): the value is prefixed
    with a 1-byte marker. On open, the log is replayed forward to
    rebuild the index; a torn trailing record (crash during write) is
    truncated away rather than poisoning recovery.

    ``put`` serialises on the store's lock, one write syscall per
    record; a write that fails part-way is cut back off the file, so the
    next record lands where the index expects it. ``get`` takes no lock:
    an index lookup and one ``os.pread``, which releases the interpreter
    lock for the syscall. A record enters the index only after it is in
    the file, so a get returns a record's stored bytes or raises
    ``PageNotFoundError``.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        index = self._recover()
        self._wfd: Optional[int] = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        #: where the next record lands (the file's size)
        self._end = os.fstat(self._wfd).st_size
        self._gen: Optional[_Generation] = _Generation(index, self.path)

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> Dict[bytes, int]:
        index: Dict[bytes, int] = {}
        if not self.path.exists():
            self.path.touch()
            return index
        with open(self.path, "r+b") as fp:
            size = os.fstat(fp.fileno()).st_size
            good_end = 0
            if size:  # mmap refuses an empty file
                with mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ) as buf:
                    while good_end < size:
                        try:
                            key, _, end = decode_record(buf, good_end)
                        except CorruptPageError:
                            break  # torn tail: keep everything before it
                        index[key] = _entry(good_end, end - good_end)
                        good_end = end
            if good_end < size:
                fp.truncate(good_end)
        return index

    # -- API -------------------------------------------------------------------

    def _append(self, record: bytes) -> int:
        """With the lock held: write *record* at the end of the log;
        returns its offset."""
        offset = self._end
        view = memoryview(record)
        try:
            while view:  # one syscall unless the kernel writes short
                view = view[os.write(self._wfd, view) :]
            if self.fsync:
                os.fsync(self._wfd)
        except BaseException:
            # drop whatever part of the record reached the file
            os.ftruncate(self._wfd, offset)
            raise
        self._end += len(record)
        return offset

    def put(self, key: bytes, value: bytes) -> None:
        record = encode_record(key, _LIVE + value)
        # the entry's length field, checked before the record reaches
        # the file; the offset is known only under the lock
        length = _entry(0, len(record))
        with self._lock:
            offset = self._append(record)
            # indexed only now that the whole record is in the file
            self._gen.index[key] = offset << _LENGTH_BITS | length

    def get(self, key: bytes) -> bytes:
        gen = self._gen
        try:
            entry = gen.index[key]
        except KeyError:
            raise PageNotFoundError(f"no page {key!r}") from None
        raw = os.pread(gen.fd, entry & _LENGTH_MASK, entry >> _LENGTH_BITS)
        stored_key, marked_value, _ = decode_record(raw)
        if stored_key != key:  # pragma: no cover - index corruption guard
            raise CorruptPageError(f"index pointed at wrong record for {key!r}")
        return marked_value[1:]

    def close(self) -> None:
        with self._lock:
            if self._wfd is None:
                return
            os.close(self._wfd)
            # the read descriptor closes with its last holder
            self._wfd = self._gen = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._gen.index)

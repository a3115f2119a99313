"""The log-structured backend — the BerkeleyDB substitute.

An append-only log of CRC-framed key/value records plus an in-memory
offset index, recovered by a forward scan on open. Deletes are
tombstones; compaction rewrites the live set.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from ...common.crc import decode_record, encode_record, scan_log
from ...common.errors import CorruptPageError, PageNotFoundError

#: tombstone marker: a record with this 1-byte prefix deletes its key
_TOMBSTONE = b"\x00"
_LIVE = b"\x01"


class _Generation:
    """One log file as readers see it: its key index and a read
    descriptor on it. :meth:`LogStructuredPageStore.compact` swaps in a
    new generation; the old descriptor closes when the last get holding
    the old generation lets go of it, so no get reads through a closed
    (or reused) descriptor."""

    __slots__ = ("index", "fd")

    def __init__(self, index: Dict[bytes, tuple[int, int]], path: Path) -> None:
        self.index = index  # key -> (offset, length)
        self.fd = os.open(path, os.O_RDONLY)

    def __del__(self, _close=os.close) -> None:
        _close(self.fd)


class LogStructuredPageStore:
    """Durable store: one append-only log file + in-memory offset index.

    Record layout (see :mod:`repro.common.crc`): the value is prefixed
    with a 1-byte live/tombstone marker. On open, the log is scanned
    forward to rebuild the index; a torn trailing record (crash during
    write) is truncated away rather than poisoning recovery.

    Writers (``put``, ``delete``, ``compact``) serialise on the store's
    lock, one write syscall per record. ``get`` takes no lock: an index
    lookup and one ``os.pread``, which releases the interpreter lock for
    the syscall. A record enters the index only after it is in the file,
    and a get reads one generation's index and file together, so it
    returns a record's stored bytes or raises ``PageNotFoundError``.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        index = self._recover()
        self._wfd: Optional[int] = self._open_writer()
        self._gen: Optional[_Generation] = _Generation(index, self.path)

    def _open_writer(self) -> int:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        #: where the next record lands (the file's size)
        self._end = os.fstat(fd).st_size
        return fd

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> Dict[bytes, tuple[int, int]]:
        index: Dict[bytes, tuple[int, int]] = {}
        if not self.path.exists():
            self.path.touch()
            return index
        good_end = 0
        with open(self.path, "rb") as fp:
            while True:
                start = fp.tell()
                try:
                    rec = next(scan_log(fp), None)
                except CorruptPageError:
                    break  # torn tail: keep everything before it
                if rec is None:
                    good_end = fp.tell()
                    break
                key, value = rec
                good_end = fp.tell()
                if value[:1] == _TOMBSTONE:
                    index.pop(key, None)
                else:
                    # value payload begins after the marker byte
                    index[key] = (start, good_end - start)
        size = self.path.stat().st_size
        if good_end < size:
            with open(self.path, "r+b") as fp:
                fp.truncate(good_end)
        return index

    # -- API -------------------------------------------------------------------

    def _append(self, record: bytes) -> int:
        """With the lock held: write *record* at the end of the log;
        returns its offset."""
        offset = self._end
        view = memoryview(record)
        while view:  # one syscall unless the kernel writes short
            view = view[os.write(self._wfd, view) :]
        if self.fsync:
            os.fsync(self._wfd)
        self._end += len(record)
        return offset

    def put(self, key: bytes, value: bytes) -> None:
        record = encode_record(key, _LIVE + value)
        with self._lock:
            offset = self._append(record)
            # indexed only now that the whole record is in the file
            self._gen.index[key] = (offset, len(record))

    def get(self, key: bytes) -> bytes:
        gen = self._gen
        try:
            offset, length = gen.index[key]
        except KeyError:
            raise PageNotFoundError(f"no page {key!r}") from None
        raw = os.pread(gen.fd, length, offset)
        stored_key, marked_value, _ = decode_record(raw)
        if stored_key != key:  # pragma: no cover - index corruption guard
            raise CorruptPageError(f"index pointed at wrong record for {key!r}")
        return marked_value[1:]

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._gen.index

    def delete(self, key: bytes) -> None:
        with self._lock:
            index = self._gen.index
            if key not in index:
                return
            self._append(encode_record(key, _TOMBSTONE))
            del index[key]

    def keys(self) -> List[bytes]:
        with self._lock:
            return list(self._gen.index)

    def compact(self) -> None:
        """Rewrite the log keeping only live records. Writers wait; a
        get already under way finishes on the generation it started on."""
        with self._lock:
            old = self._gen
            tmp_path = self.path.with_suffix(".compact")
            new_index: Dict[bytes, tuple[int, int]] = {}
            with open(tmp_path, "wb") as out:
                for key, (offset, length) in old.index.items():
                    raw = os.pread(old.fd, length, offset)
                    new_index[key] = (out.tell(), len(raw))
                    out.write(raw)
                out.flush()
                os.fsync(out.fileno())
            os.close(self._wfd)
            os.replace(tmp_path, self.path)
            self._wfd = self._open_writer()
            self._gen = _Generation(new_index, self.path)

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

"""The log-structured backend — the BerkeleyDB substitute.

An append-only log of CRC-framed key/value records plus an in-memory
offset index, recovered by a forward scan on open. Deletes are
tombstones; compaction rewrites the live set.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List

from ...common.crc import decode_record, encode_record, scan_log
from ...common.errors import CorruptPageError, PageNotFoundError

#: tombstone marker: a record with this 1-byte prefix deletes its key
_TOMBSTONE = b"\x00"
_LIVE = b"\x01"


class LogStructuredPageStore:
    """Durable store: one append-only log file + in-memory offset index.

    Record layout (see :mod:`repro.common.crc`): the value is prefixed
    with a 1-byte live/tombstone marker. On open, the log is scanned
    forward to rebuild the index; a torn trailing record (crash during
    write) is truncated away rather than poisoning recovery.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._index: Dict[bytes, tuple[int, int]] = {}  # key -> (offset, length)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._recover()
        self._fp = open(self.path, "ab")
        self._read_fp = open(self.path, "rb")

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> None:
        if not self.path.exists():
            self.path.touch()
            return
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
                    self._index.pop(key, None)
                else:
                    # value payload begins after the marker byte
                    self._index[key] = (start, good_end - start)
        size = self.path.stat().st_size
        if good_end < size:
            with open(self.path, "r+b") as fp:
                fp.truncate(good_end)

    # -- API -------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        record = encode_record(key, _LIVE + value)
        with self._lock:
            offset = self._fp.tell()
            self._fp.write(record)
            self._fp.flush()
            if self.fsync:
                os.fsync(self._fp.fileno())
            self._index[key] = (offset, len(record))

    def get(self, key: bytes) -> bytes:
        with self._lock:
            try:
                offset, length = self._index[key]
            except KeyError:
                raise PageNotFoundError(f"no page {key!r}") from None
            self._read_fp.seek(offset)
            raw = self._read_fp.read(length)
        stored_key, marked_value, _ = decode_record(raw)
        if stored_key != key:  # pragma: no cover - index corruption guard
            raise CorruptPageError(f"index pointed at wrong record for {key!r}")
        return marked_value[1:]

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._index

    def delete(self, key: bytes) -> None:
        with self._lock:
            if key not in self._index:
                return
            record = encode_record(key, _TOMBSTONE)
            self._fp.write(record)
            self._fp.flush()
            if self.fsync:
                os.fsync(self._fp.fileno())
            del self._index[key]

    def keys(self) -> List[bytes]:
        with self._lock:
            return list(self._index)

    def compact(self) -> None:
        """Rewrite the log keeping only live records (stop-the-world)."""
        with self._lock:
            tmp_path = self.path.with_suffix(".compact")
            new_index: Dict[bytes, tuple[int, int]] = {}
            with open(tmp_path, "wb") as out:
                for key, (offset, length) in self._index.items():
                    self._read_fp.seek(offset)
                    raw = self._read_fp.read(length)
                    new_index[key] = (out.tell(), len(raw))
                    out.write(raw)
                out.flush()
                os.fsync(out.fileno())
            self._fp.close()
            self._read_fp.close()
            os.replace(tmp_path, self.path)
            self._index = new_index
            self._fp = open(self.path, "ab")
            self._read_fp = open(self.path, "rb")

    def close(self) -> None:
        with self._lock:
            self._fp.close()
            self._read_fp.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

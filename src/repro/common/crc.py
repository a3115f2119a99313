"""CRC-framed record encoding for the persistence layer.

BlobSeer persists pages through a BerkeleyDB layer; our substitute is a
log-structured store whose on-disk records are framed as::

    magic (2B) | key_len (4B) | value_len (8B) | crc32 (4B) | key | value

The CRC covers key and value, so torn or bit-rotted records are detected
on read (surfaced as :class:`~repro.common.errors.CorruptPageError`).
:func:`decode_record` is the one decoder: the store's reads and its
recovery replay both go through it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from .errors import CorruptPageError

_MAGIC = 0xB10B  # "blob"
_HEADER = struct.Struct(">HIQI")  # magic, key_len, value_len, crc32


def encode_record(key: bytes, value: bytes) -> bytes:
    """Frame one key/value record with header and CRC."""
    crc = zlib.crc32(key)
    crc = zlib.crc32(value, crc)
    return _HEADER.pack(_MAGIC, len(key), len(value), crc) + key + value


def decode_record(buf: bytes, offset: int = 0) -> Tuple[bytes, bytes, int]:
    """Decode the record at *offset*; returns ``(key, value, next_offset)``.

    Raises :class:`CorruptPageError` on bad magic, truncation, or CRC
    mismatch.
    """
    end = offset + _HEADER.size
    if end > len(buf):
        raise CorruptPageError(f"truncated header at offset {offset}")
    magic, key_len, value_len, crc = _HEADER.unpack_from(buf, offset)
    if magic != _MAGIC:
        raise CorruptPageError(f"bad magic 0x{magic:04x} at offset {offset}")
    key_end = end + key_len
    value_end = key_end + value_len
    if value_end > len(buf):
        raise CorruptPageError(f"truncated body at offset {offset}")
    key = buf[end:key_end]
    value = buf[key_end:value_end]
    actual = zlib.crc32(value, zlib.crc32(key))
    if actual != crc:
        raise CorruptPageError(
            f"crc mismatch at offset {offset}: stored=0x{crc:08x} actual=0x{actual:08x}"
        )
    return key, value, value_end

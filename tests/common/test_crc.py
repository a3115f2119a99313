"""Unit + property tests for the CRC-framed record encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.common.crc import decode_record, encode_record
from repro.common.errors import CorruptPageError


def test_roundtrip_simple():
    buf = encode_record(b"key", b"value")
    key, value, end = decode_record(buf)
    assert (key, value, end) == (b"key", b"value", len(buf))


def test_empty_key_and_value():
    buf = encode_record(b"", b"")
    assert decode_record(buf)[:2] == (b"", b"")


@given(st.binary(max_size=200), st.binary(max_size=2000))
def test_roundtrip_property(key, value):
    buf = encode_record(key, value)
    k, v, end = decode_record(buf)
    assert k == key and v == value and end == len(buf)


def test_bit_flip_detected():
    buf = bytearray(encode_record(b"key", b"some page data here"))
    buf[-3] ^= 0x40
    with pytest.raises(CorruptPageError, match="crc mismatch"):
        decode_record(bytes(buf))


def test_bad_magic_detected():
    buf = bytearray(encode_record(b"k", b"v"))
    buf[0] ^= 0xFF
    with pytest.raises(CorruptPageError, match="magic"):
        decode_record(bytes(buf))


def test_truncated_header():
    buf = encode_record(b"k", b"v")[:5]
    with pytest.raises(CorruptPageError, match="truncated"):
        decode_record(buf)


def test_truncated_body():
    buf = encode_record(b"k", b"value")[:-2]
    with pytest.raises(CorruptPageError, match="truncated"):
        decode_record(buf)


def test_decode_at_offset():
    first = encode_record(b"a", b"1")
    second = encode_record(b"b", b"2")
    buf = first + second
    k, v, end = decode_record(buf, offset=len(first))
    assert (k, v) == (b"b", b"2") and end == len(buf)

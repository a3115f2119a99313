"""Unit tests for byte-size units."""

from repro.common.units import CHUNK_SIZE, GiB, KiB, MiB, TiB


def test_constants_are_powers():
    assert KiB == 2**10
    assert MiB == 2**20
    assert GiB == 2**30
    assert TiB == 2**40
    assert CHUNK_SIZE == 64 * MiB

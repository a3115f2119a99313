"""Unit + property tests for the BSFS client cache components."""

import pytest
from hypothesis import given, strategies as st

from repro.bsfs.cache import ReadBlockCache, WriteBehindBuffer


def get(cache, index, fetch):
    """Lookup-or-fetch, the way the read stream core drives the cache."""
    block = cache.lookup(index)
    if block is None:
        block = fetch(index)
        cache.insert(index, block)
    return block


class TestReadBlockCache:
    def test_miss_then_hit(self):
        cache = ReadBlockCache(block_size=100, capacity_blocks=2)
        fetches = []
        fetch = lambda i: fetches.append(i) or b"%03d" % i  # noqa: E731
        assert get(cache, 5, fetch) == b"005"
        assert get(cache, 5, fetch) == b"005"
        assert fetches == [5]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = ReadBlockCache(block_size=10, capacity_blocks=2)
        fetch = lambda i: bytes([i])  # noqa: E731
        get(cache, 1, fetch)
        get(cache, 2, fetch)
        get(cache, 1, fetch)  # refresh 1
        get(cache, 3, fetch)  # evicts 2
        assert len(cache) == 2
        misses = cache.misses
        get(cache, 1, fetch)  # still cached
        assert cache.misses == misses
        get(cache, 2, fetch)  # was evicted
        assert cache.misses == misses + 1

    def test_invalidate_one_and_all(self):
        cache = ReadBlockCache(10, 4)
        fetch = lambda i: bytes([i])  # noqa: E731
        get(cache, 1, fetch)
        get(cache, 2, fetch)
        cache.invalidate(1)
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadBlockCache(0, 1)
        with pytest.raises(ValueError):
            ReadBlockCache(10, 0)


class TestWriteBehindBuffer:
    def test_small_writes_accumulate(self):
        buf = WriteBehindBuffer(100)
        assert buf.add(b"x" * 30) == []
        assert buf.add(b"y" * 30) == []
        assert buf.pending == 60

    def test_exceeding_block_releases_buffer_first(self):
        buf = WriteBehindBuffer(100)
        buf.add(b"a" * 80)
        out = buf.add(b"b" * 40)
        assert out == [b"a" * 80]
        assert buf.pending == 40

    def test_exact_fill_releases(self):
        buf = WriteBehindBuffer(100)
        buf.add(b"a" * 60)
        out = buf.add(b"b" * 40)
        assert out == [b"a" * 60 + b"b" * 40]
        assert buf.pending == 0

    def test_oversized_write_is_its_own_batch(self):
        buf = WriteBehindBuffer(100)
        buf.add(b"head")
        out = buf.add(b"Z" * 500)
        assert out == [b"head", b"Z" * 500]

    def test_drain(self):
        buf = WriteBehindBuffer(100)
        buf.add(b"tail")
        assert buf.drain() == b"tail"
        assert buf.drain() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            WriteBehindBuffer(0)

    @given(
        writes=st.lists(st.binary(min_size=1, max_size=300), max_size=20),
        block=st.integers(min_value=1, max_value=128),
    )
    def test_record_atomicity_property(self, writes, block):
        """Batches concatenate to the input, and no single write is ever
        split across two batches (record-append atomicity)."""
        buf = WriteBehindBuffer(block)
        batches = []
        for w in writes:
            batches.extend(buf.add(w))
        tail = buf.drain()
        if tail:
            batches.append(tail)
        assert b"".join(batches) == b"".join(writes)
        # verify no split: every write below the block size must appear
        # wholly inside one batch boundary walk
        boundaries = set()
        pos = 0
        for b in batches:
            boundaries.add(pos)
            pos += len(b)
        boundaries.add(pos)
        pos = 0
        for w in writes:
            start, end = pos, pos + len(w)
            pos = end
            if len(w) > block:
                continue  # oversized writes are single batches by construction
            inside = [b for b in boundaries if start < b < end]
            assert not inside, f"write [{start},{end}) split at {inside}"

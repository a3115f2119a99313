"""Client-side caching: the whole-block read core of both file systems,
and BSFS's write-behind buffer.

"We also implemented a caching mechanism for read/write operations, as
Map/Reduce applications usually process data in small records (4KB,
whereas Hadoop is concerned). This mechanism prefetches a whole block
when the requested data is not already cached, and delays committing
writes until a whole block has been filled in the cache." HDFS reads
the same way: "when HDFS receives a read request for a small block, it
prefetches the entire chunk that contains the required block".

* :class:`ReadBlockCache` — a small LRU of whole blocks on the read
  path; a 4 KB record read touches the storage service only once per
  block.
* :class:`ReadStreamCore` — the engine-agnostic read walk both input
  streams run over that cache (BSFS: block == BLOB page, two blocks
  cached; HDFS: block == chunk, one block cached). It is sans-IO: each
  file system hands it its own fetch generator.
* :class:`WriteBehindBuffer` — accumulates small writes and emits whole
  blocks; the stream flushes the final partial block at close. Each
  emitted block becomes one BLOB append, so a concurrent appender's data
  lands atomically at block granularity (GFS-record-append-style
  semantics for multi-writer files).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from ..blobseer.protocol import report_holes

#: whole blocks a read stream's cache holds
STREAM_CACHE_BLOCKS = 2


class ReadBlockCache:
    """LRU cache of whole blocks, keyed by block index. A block is
    whatever its reader stores: :class:`ReadStreamCore` stores the bytes
    with the block's hole extents.

    *on_hit* / *on_miss* fire once per lookup alongside the lifetime
    counters — the BSFS streams wire them to the metrics registry so
    hit-rates show up in experiment output.
    """

    def __init__(
        self,
        block_size: int,
        capacity_blocks: int,
        on_hit: Optional[Callable[[], None]] = None,
        on_miss: Optional[Callable[[], None]] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be >= 1")
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._blocks: "OrderedDict[int, object]" = OrderedDict()
        #: lifetime counters
        self.hits = 0
        self.misses = 0
        self._on_hit = on_hit
        self._on_miss = on_miss

    def lookup(self, index: int) -> Optional[object]:
        """The block at *index*, or None on a (counted) miss.

        The split lookup/:meth:`insert` API serves the generator stream
        cores, which must yield to their engine between the miss and the
        fill.
        """
        block = self._blocks.get(index)
        if block is None:
            self.misses += 1
            if self._on_miss is not None:
                self._on_miss()
            return None
        self.hits += 1
        if self._on_hit is not None:
            self._on_hit()
        self._blocks.move_to_end(index)
        return block

    def insert(self, index: int, block: object) -> None:
        """Fill *index* after a miss (LRU evicting)."""
        self._blocks[index] = block
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)

    def invalidate(self, index: Optional[int] = None) -> None:
        """Drop one block (or everything) — used when a cached partial
        tail block may have grown."""
        if index is None:
            self._blocks.clear()
        else:
            self._blocks.pop(index, None)

    def __len__(self) -> int:
        return len(self._blocks)


class ReadStreamCore:
    """Whole-block prefetching read walk, engine-agnostic.

    *fetch(offset, length, holes)* is the file's read generator: it
    returns the bytes of ``[offset, offset+length)`` and, given a
    *holes* list, reports the ranges no committed write covers into it
    (zeros stand in for them) instead of raising. On a cache miss the
    core fetches the entire block holding the requested range, with a
    holes list, and caches the bytes with their hole extents; a cached
    partial tail block that has since grown is invalidated and
    refetched. Without a cache each read is one fetch of its own range.
    """

    def __init__(
        self,
        block_size: int,
        fetch: Callable,
        cache: Optional[ReadBlockCache] = None,
    ) -> None:
        self.block_size = block_size
        self.fetch = fetch
        self.cache = cache
        #: lifetime counter of fetches issued (prefetch effectiveness)
        self.fetches = 0

    def read_range(
        self,
        offset: int,
        nbytes: int,
        size: int,
        holes: Optional[List[Tuple[int, int]]] = None,
    ):
        """Generator: up to *nbytes* at *offset* of a file of *size*
        bytes, clipped to it (``b""`` at or past the end). A hole in the
        range raises the fetch's own error unless *holes* is a list (see
        :meth:`~repro.common.fs.InputStream.pread_holes`)."""
        if nbytes < 0:
            raise ValueError("negative read size")
        nbytes = min(nbytes, size - offset)
        if nbytes <= 0:
            return b""
        if self.cache is None:
            self.fetches += 1
            return (yield from self.fetch(offset, nbytes, holes))
        pieces: List[bytes] = []
        pos, end = offset, offset + nbytes
        while pos < end:
            index, in_block = divmod(pos, self.block_size)
            take = min(end - pos, self.block_size - in_block)
            piece = yield from self._read_block(index, in_block, take, size, holes)
            pieces.append(piece)
            pos += take
        return b"".join(pieces)

    def _read_block(self, index, offset, nbytes, size, holes):
        base = index * self.block_size
        entry = self.cache.lookup(index)
        if entry is not None and len(entry[0]) < offset + nbytes:
            # a previously partial tail block has grown since it was cached
            self.cache.invalidate(index)
            entry = self.cache.lookup(index)  # recounted as the miss it now is
        if entry is None:
            self.fetches += 1
            found: List[Tuple[int, int]] = []
            block = yield from self.fetch(
                base, min(self.block_size, size - base), found
            )
            entry = (block, found)
            self.cache.insert(index, entry)
        block, gaps = entry
        lo, hi = base + offset, base + offset + nbytes
        if holes is not None:
            report_holes(gaps, holes, lo, hi)
        elif any(start < hi and lo < end for start, end in gaps):
            # the fetch raises its own error for a hole in the range
            self.fetches += 1
            return (yield from self.fetch(lo, nbytes, None))
        return block[offset : offset + nbytes]


class WriteBehindBuffer:
    """Accumulates writes, releasing ~block-sized batches for commitment.

    ``add`` returns the batches now ready to ship; ``drain`` returns the
    final partial batch. The caller owns actually committing them (one
    BLOB append per batch).

    Batches are cut **only between ``add`` calls, never inside one**:
    each application-level write (one record, in Hadoop's record-writer
    usage) lands in exactly one BLOB append, so records stay intact even
    when many appenders' batches interleave in the shared file —
    GFS-record-append-style atomicity. An oversized single write becomes
    one (multi-page) append of its own, which BlobSeer handles
    atomically anyway.
    """

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self._buffer = bytearray()
        #: total bytes accepted
        self.accepted = 0
        #: lifetime count of batches released (add + drain)
        self.flushes = 0

    def add(self, data: bytes) -> List[bytes]:
        """Buffer *data*; returns every batch now ready to commit."""
        self.accepted += len(data)
        out: List[bytes] = []
        if self._buffer and len(self._buffer) + len(data) > self.block_size:
            out.append(bytes(self._buffer))
            self._buffer.clear()
        if len(data) >= self.block_size:
            out.append(bytes(data))
        else:
            self._buffer += data
            if len(self._buffer) == self.block_size:
                out.append(bytes(self._buffer))
                self._buffer.clear()
        self.flushes += len(out)
        return out

    def drain(self) -> Optional[bytes]:
        """The remaining partial block (None when empty)."""
        if not self._buffer:
            return None
        block = bytes(self._buffer)
        self._buffer.clear()
        self.flushes += 1
        return block

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet released."""
        return len(self._buffer)

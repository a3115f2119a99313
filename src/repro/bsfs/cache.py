"""BSFS client-side caching.

"We also implemented a caching mechanism for read/write operations, as
Map/Reduce applications usually process data in small records (4KB,
whereas Hadoop is concerned). This mechanism prefetches a whole block
when the requested data is not already cached, and delays committing
writes until a whole block has been filled in the cache."

* :class:`ReadBlockCache` — a small LRU of whole blocks (block size ==
  BLOB page size) on the read path; a 4 KB record read touches the
  BlobSeer service only once per 64 MB block.
* :class:`WriteBehindBuffer` — accumulates small writes and emits whole
  blocks; the stream flushes the final partial block at close. Each
  emitted block becomes one BLOB append, so a concurrent appender's data
  lands atomically at block granularity (GFS-record-append-style
  semantics for multi-writer files).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

#: whole blocks a read stream's cache holds
STREAM_CACHE_BLOCKS = 2


class ReadBlockCache:
    """LRU cache of whole blocks, keyed by block index.

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
        self._blocks: "OrderedDict[int, bytes]" = OrderedDict()
        #: lifetime counters
        self.hits = 0
        self.misses = 0
        self._on_hit = on_hit
        self._on_miss = on_miss

    def lookup(self, index: int) -> Optional[bytes]:
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

    def insert(self, index: int, block: Optional[bytes]) -> None:
        """Fill *index* after a miss (LRU evicting). None — a simulated
        read that carries no bytes — is not cached."""
        if block is None:
            return
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

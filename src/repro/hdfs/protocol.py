"""The HDFS client protocol, sans-IO.

Pipeline writes (chunk allocation → replica fan-out → commit) and
replica-rotating reads as engine-parameterized generators, shared by the
simulated deployment (:mod:`repro.hdfs.simulated`) and the threaded
:class:`~repro.common.fs.FileSystem` implementation
(:mod:`repro.hdfs.client`).

The namenode is a bound control endpoint (charged, serialized RPCs under
the DES engine; plain locked calls under the threaded engine); datanodes
are data endpoints. Failure handling is the shared policy: allocations
are re-requested with backoff while every target is down, chunk stores
skip over datanodes that time out (reporting them to the namenode), and
block reads fail over replicas through
:func:`~repro.engine.replica.sweep_fetch`. The simulated deployment
never crashes a datanode, so its range read has no failover.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import ReplicationError, RpcTimeoutError
from ..engine.base import Engine, Payload
from ..engine.replica import ReplicaSelector, sweep_fetch
from .block import BlockInfo


class HDFSProtocol:
    """The one HDFS client stack, bound to a runtime through its engine."""

    def __init__(self, engine: Engine, config) -> None:
        self.engine = engine
        self.config = config
        self._selectors: Dict[str, ReplicaSelector] = {}

    def selector(self, client: str) -> ReplicaSelector:
        """The client's replica selector (rotation phase + dead memory)."""
        sel = self._selectors.get(client)
        if sel is None:
            sel = self._selectors.setdefault(
                client,
                ReplicaSelector(self.engine.rng("replica", "hdfs", client)),
            )
        return sel

    # -- write path ----------------------------------------------------------

    def write_block(self, client: str, path: str, payload: Payload):
        """Generator: allocate one chunk, ship it to its replicas, commit.

        Returns ``(block_id, stored)`` — the datanodes actually holding
        the chunk.
        """
        engine = self.engine
        block_id, targets = yield engine.call(
            "nn", "allocate_block", path, client
        )
        if engine.faults_active:
            # targets may have crashed between allocation and shipping;
            # drop them, and re-allocate (with backoff) if none survive.
            # Abandoned allocations are harmless: block ids are derived
            # from the committed block count, not reserved state.
            sweep = 0
            while not (
                alive := tuple(t for t in targets if not engine.is_down(t))
            ):
                if sweep >= engine.retry.max_attempts:
                    raise ReplicationError(
                        f"chunk of {path} could not be placed: "
                        "all allocated datanodes are down"
                    )
                yield engine.sleep(engine.retry.backoff(sweep))
                sweep += 1
                block_id, targets = yield engine.call(
                    "nn", "allocate_block", path, client
                )
            stored = []
            for name in alive:
                try:
                    yield engine.store(client, name, block_id, payload)
                except RpcTimeoutError:
                    yield engine.wait("nn", "mark_down", name)
                else:
                    stored.append(name)
            if not stored:
                raise ReplicationError(f"chunk {block_id} stored nowhere")
            stored = tuple(stored)
        else:
            # fault-free fast path: one batched fan-out to all replicas
            shippers = engine.ship_many(client, [targets], [len(payload)])
            yield shippers[0]
            stored = tuple(targets)
        yield engine.call(
            "nn", "commit_block", path, client, block_id, len(payload), stored
        )
        return block_id, stored

    def write_file(self, client: str, path: str, payload: Payload):
        """Generator: create + write + close a file of ``len(payload)``
        bytes, chunk by chunk (the client buffers one chunk, 64 MB)."""
        if len(payload) <= 0:
            raise ValueError("write of zero bytes")
        engine = self.engine
        yield engine.call("nn", "create", path, client)
        pos, total = 0, len(payload)
        while pos < total:
            chunk = min(self.config.chunk_size, total - pos)
            yield from self.write_block(
                client, path, payload.slice(pos, pos + chunk)
            )
            pos += chunk
        yield engine.call("nn", "complete", path, client)

    # -- read path -----------------------------------------------------------

    def read_range(self, client: str, path: str, offset: int, nbytes: int):
        """Generator: read a byte range — one namenode location RPC, then
        the chunk fetches in parallel, each from its first replica.

        The simulated HDFS's fault-free fast path: its only caller
        (:class:`~repro.hdfs.simulated.SimHDFS`) never crashes a
        datanode, and it carries sizes, not bytes.
        """
        if nbytes <= 0:
            raise ValueError("read of zero bytes")
        engine = self.engine
        locations = yield engine.call(
            "nn", "get_block_locations", path, offset, nbytes
        )
        fetchers = []
        for loc in locations:
            lo = max(offset, loc.offset)
            hi = min(offset + nbytes, loc.offset + loc.length)
            if hi > lo:
                fetchers.append(
                    engine.fetch(
                        client, loc.hosts[0], None, lo - loc.offset, hi - lo
                    )
                )
        yield engine.gather(fetchers)

    def read_block_range(
        self,
        client: str,
        block: BlockInfo,
        offset: int,
        size: int,
        selector: Optional[ReplicaSelector] = None,
    ):
        """Generator: read a range of one committed chunk, failing over
        across its replicas. Streams pass their own selector so the
        dead-replica memory lives as long as the stream."""
        data = yield from sweep_fetch(
            self.engine,
            selector if selector is not None else self.selector(client),
            client,
            block.datanodes,
            block.block_id,
            offset,
            size,
            f"chunk {block.block_id}",
        )
        return data


class ChunkStreamCore:
    """Client-side chunk buffering for the write path.

    "Clients buffer all write operations until the data reaches the
    size of a chunk (64MB)"; only then is a chunk allocated and shipped.
    The runtime shims own locking and lifecycle; this core owns the
    buffer and the allocate → ship → commit protocol per full chunk.
    """

    def __init__(self, protocol: HDFSProtocol, client: str, path: str) -> None:
        self.protocol = protocol
        self.client = client
        self.path = path
        self.buffer = bytearray()
        self.chunk_size = protocol.config.chunk_size
        #: total bytes accepted
        self.written = 0

    def write(self, data: bytes):
        """Generator: accept *data*, shipping every chunk it completes."""
        self.buffer += data
        self.written += len(data)
        while len(self.buffer) >= self.chunk_size:
            chunk = bytes(self.buffer[: self.chunk_size])
            del self.buffer[: self.chunk_size]
            yield from self.protocol.write_block(
                self.client, self.path, Payload(chunk)
            )

    def close(self):
        """Generator: ship the final partial chunk, then complete the
        file at the namenode."""
        if self.buffer:
            yield from self.protocol.write_block(
                self.client, self.path, Payload(bytes(self.buffer))
            )
            self.buffer.clear()
        yield self.protocol.engine.call(
            "nn", "complete", self.path, self.client
        )


class BlockReadCore:
    """Readahead walk for the read path.

    "When HDFS receives a read request for a small block, it prefetches
    the entire chunk that contains the required block" — the core caches
    the last prefetched chunk and fails reads over across replicas via
    the stream's :class:`~repro.engine.replica.ReplicaSelector` (seeded
    rotation + dead-datanode memory, scoped to the stream's lifetime).
    """

    def __init__(
        self,
        protocol: HDFSProtocol,
        client: str,
        path: str,
        blocks: Sequence[BlockInfo],
    ) -> None:
        self.protocol = protocol
        self.client = client
        self.blocks = list(blocks)
        self.offsets: List[int] = []
        pos = 0
        for b in self.blocks:
            self.offsets.append(pos)
            pos += b.length
        #: total file size
        self.size = pos
        self.selector = ReplicaSelector(
            protocol.engine.rng("replica", "hdfs-read", client, path)
        )
        # readahead cache: (block index, chunk bytes)
        self.cached: Optional[Tuple[int, bytes]] = None
        #: lifetime counter of datanode fetches (readahead effectiveness)
        self.fetches = 0

    def pread(self, offset: int, n: int):
        """Generator: positional read, clipped to the file size."""
        if n < 0:
            raise ValueError("negative read size")
        if offset >= self.size or n == 0:
            return b""
        n = min(n, self.size - offset)
        pieces: List[bytes] = []
        remaining, pos = n, offset
        while remaining > 0:
            index = self._block_index(pos)
            in_block = pos - self.offsets[index]
            take = min(remaining, self.blocks[index].length - in_block)
            piece = yield from self._read_from_block(index, in_block, take)
            pieces.append(piece)
            pos += take
            remaining -= take
        if any(piece is None for piece in pieces):
            return None  # simulated reads carry no bytes
        return b"".join(pieces)

    def _block_index(self, pos: int) -> int:
        # binary search over block start offsets
        lo, hi = 0, len(self.blocks) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.offsets[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _read_from_block(self, index: int, offset: int, size: int):
        block = self.blocks[index]
        if self.cached is not None and self.cached[0] == index:
            return self.cached[1][offset : offset + size]
        # prefetch the entire chunk containing the requested range
        chunk = yield from self.protocol.read_block_range(
            self.client, block, 0, block.length, self.selector
        )
        self.fetches += 1
        if chunk is None:
            return None
        self.cached = (index, chunk)
        return chunk[offset : offset + size]

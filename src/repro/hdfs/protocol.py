"""The HDFS client protocol, sans-IO.

Pipeline writes (chunk allocation → replica fan-out → commit) and
replica-rotating reads as engine-parameterized generators, shared by the
simulated deployment (:mod:`repro.hdfs.simulated`) and the threaded
:class:`~repro.common.fs.FileSystem` implementation
(:mod:`repro.hdfs.client`). Whole-chunk readahead is not here: the
threaded input stream runs the read core both file systems share
(:class:`~repro.bsfs.cache.ReadStreamCore`) over
:meth:`HDFSProtocol.read_block_range`.

The namenode is a bound control endpoint (charged, serialized RPCs under
the DES engine; plain locked calls under the threaded engine); datanodes
are data endpoints. Failure handling is the shared policy: chunk stores
skip over datanodes that time out (reporting them to the namenode), a
chunk no target took is re-allocated with backoff, and block reads fail
over replicas through
:func:`~repro.engine.replica.sweep_fetch`. The simulated deployment
never crashes a datanode, so its range read has no failover.

There is one path on every engine. A fan-out (a chunk's replica
stores, a range read's chunk fetches) makes every op before it awaits
any: a DES op starts when it is made, so the fan-out runs in parallel
there, while a threaded op runs when it is yielded.
"""

from __future__ import annotations


from ..common.errors import ReplicationError, RpcTimeoutError
from ..engine.base import Engine, Payload
from ..engine.replica import ReplicaSelector, sweep_fetch
from .block import BlockInfo


class HDFSProtocol:
    """The one HDFS client stack, bound to a runtime through its engine."""

    def __init__(self, engine: Engine, config) -> None:
        self.engine = engine
        self.config = config

    # -- write path ----------------------------------------------------------

    def write_block(self, client: str, path: str, payload: Payload):
        """Generator: allocate one chunk, ship it to its replicas, commit.

        Returns ``(block_id, stored)`` — the datanodes actually holding
        the chunk.
        """
        engine = self.engine
        size = len(payload)
        block_id, targets = yield engine.call(
            None, "nn", "allocate_block", path, client
        )
        # a target that times out is reported to the namenode, which
        # excludes it from placement; when no target took the chunk,
        # back off and allocate again (HDFS's exclude-and-reallocate).
        # Abandoned allocations are harmless: block ids are derived
        # from the committed block count, not reserved state. Each
        # sweep makes every target's store before awaiting any, so on
        # the DES the replicas receive the chunk in parallel.
        sweep = 0
        while True:
            ops = [
                engine.store(None, client, name, block_id, payload)
                for name in targets
            ]
            stored = []
            for name, op in zip(targets, ops):
                try:
                    yield op
                except RpcTimeoutError:
                    yield engine.wait(None, "nn", "mark_down", name)
                else:
                    stored.append(name)
            if stored:
                break
            if sweep >= engine.retry.max_attempts:
                raise ReplicationError(f"chunk {block_id} stored nowhere")
            yield engine.sleep(None, engine.retry.backoff(sweep))
            sweep += 1
            block_id, targets = yield engine.call(
                None, "nn", "allocate_block", path, client
            )
        stored = tuple(stored)
        yield engine.call(
            None, "nn", "commit_block", path, client, block_id, size, stored
        )
        return block_id, stored

    def write_file(self, client: str, path: str, payload: Payload):
        """Generator: create + write + close a file of ``len(payload)``
        bytes, chunk by chunk (the client buffers one chunk, 64 MB)."""
        if len(payload) <= 0:
            raise ValueError("write of zero bytes")
        engine = self.engine
        yield engine.call(None, "nn", "create", path, client)
        pos, total = 0, len(payload)
        while pos < total:
            chunk = min(self.config.chunk_size, total - pos)
            yield from self.write_block(
                client, path, payload.slice(pos, pos + chunk)
            )
            pos += chunk
        yield engine.call(None, "nn", "complete", path, client)

    # -- read path -----------------------------------------------------------

    def read_range(self, client: str, path: str, offset: int, nbytes: int):
        """Generator: read a byte range — one namenode location RPC, then
        one fetch per chunk, each from its first replica: every fetch is
        made before any is awaited, so on the DES they run in parallel.

        Its only caller (:class:`~repro.hdfs.simulated.SimHDFS`) never
        crashes a datanode, so there is no failover, and it carries
        sizes, not bytes.
        """
        if nbytes <= 0:
            raise ValueError("read of zero bytes")
        engine = self.engine
        locations = yield engine.call(
            None, "nn", "get_block_locations", path, offset, nbytes
        )
        fetchers = []
        for loc in locations:
            lo = max(offset, loc.offset)
            hi = min(offset + nbytes, loc.offset + loc.length)
            if hi > lo:
                host, at = loc.hosts[0], lo - loc.offset
                fetchers.append(
                    engine.fetch(None, client, host, None, at, hi - lo)
                )
        for op in fetchers:
            yield op

    def read_block_range(
        self,
        client: str,
        block: BlockInfo,
        offset: int,
        size: int,
        selector: ReplicaSelector,
    ):
        """Generator: read a range of one committed chunk, failing over
        across its replicas in *selector*'s order. A stream passes its
        own selector, so the dead-replica memory lives as long as the
        stream."""
        data = yield from sweep_fetch(
            self.engine,
            selector,
            client,
            block.datanodes,
            block.block_id,
            offset,
            size,
            "chunk",
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
            None, "nn", "complete", self.path, self.client
        )

"""The BSFS client protocol, sans-IO.

The file layer's behaviours — the paper's two-step append (BLOB append,
then a file-size update at the centralized namespace manager), namespace
lookups, whole-block prefetching and write-behind batching — live here
as engine-parameterized generators, shared by the simulated deployment
(:mod:`repro.bsfs.simulated`) and the threaded Hadoop ``FileSystem``
facade (:mod:`repro.bsfs.client`).

The namespace manager is the ``ns`` control endpoint of the engine: the
DES runtime charges each call as a serialized RPC at the dedicated
namespace machine, the threaded runtime calls the lock-based
:class:`~repro.bsfs.namespace.NamespaceManager` directly. All data
movement delegates to the :class:`~repro.blobseer.protocol.BlobSeerProtocol`
sharing the same engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..blobseer.protocol import BlobSeerProtocol
from ..common.fs import BlockLocation
from ..engine.base import Payload
from ..obs import NULL_OBS, Observability
from .cache import ReadBlockCache, WriteBehindBuffer

#: paths the namespace record cache holds at most; the oldest entry
#: makes room for a new one
RECORD_CACHE_PATHS = 4096


class BSFSProtocol:
    """The one BSFS client stack, bound to a runtime through its engine."""

    def __init__(
        self,
        engine,
        blobseer: BlobSeerProtocol,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = engine
        self.blobseer = blobseer
        self.obs = obs or NULL_OBS
        self._c_ns_rpcs = self.obs.registry.counter("ns.rpcs")
        #: path -> file record, when the ``ns_record_cache`` knob is on.
        #: A record's blob binding and page size are immutable, and the
        #: operations resolved through the cache never consult its size
        #: field (appends learn their offset from the BLOB ticket, reads
        #: are bounds-checked against the BLOB version), so an entry
        #: goes stale only when its *path* is rebound: :meth:`delete`
        #: and :meth:`rename` empty the cache, an overwriting
        #: :meth:`create_file` drops its path. Namespace mutations that
        #: bypass this protocol object are not seen.
        cfg = getattr(blobseer, "config", None)
        if cfg is not None and getattr(cfg, "ns_record_cache", False):
            self._record_cache: Optional[Dict[str, object]] = {}
            self._c_ns_cache_hits = self.obs.registry.counter("ns.cache.hits")
            self._c_ns_cache_misses = self.obs.registry.counter(
                "ns.cache.misses"
            )
        else:
            self._record_cache = None

    # -- namespace RPCs ------------------------------------------------------

    def _ns(self, client, parent, op, method, *args):
        """Generator: one charged round trip to the namespace manager."""
        self._c_ns_rpcs.inc()
        sp = self.obs.tracer.start(
            f"ns.{op}", cat="bsfs.ns", parent=parent, track=client
        )
        self.engine.trace_parent(sp)
        result = yield self.engine.call("ns", method, *args)
        sp.finish()
        return result

    def _lookup(self, client, parent, path: str):
        """Generator: resolve *path* to its file record, through the
        client record cache when enabled."""
        cache = self._record_cache
        if cache is not None:
            record = cache.get(path)
            if record is not None:
                self._c_ns_cache_hits.inc()
                return record
            self._c_ns_cache_misses.inc()
        record = yield from self._ns(client, parent, "lookup", "get", path)
        if cache is not None:
            if len(cache) >= RECORD_CACHE_PATHS:
                del cache[next(iter(cache))]
            cache[path] = record
        return record

    # -- file operations -----------------------------------------------------

    def create_file(
        self,
        client: str,
        path: str,
        blob_id: int,
        page_size: int,
        overwrite: bool = False,
        parent=None,
    ):
        """Generator: register *path* as a view of an (already created)
        BLOB at the namespace manager. Returns the file record. (Here
        and below, *parent* is the caller's span, if it has one.)"""
        sp = self.obs.tracer.start(
            "bsfs.create", cat="bsfs", parent=parent, track=client, path=path
        )
        record = yield from self._ns(
            client, sp, "create", "create", path, blob_id, page_size, overwrite
        )
        if self._record_cache is not None:
            # an overwrite rebinds the path to a new BLOB
            self._record_cache.pop(path, None)
        sp.finish(blob=blob_id)
        return record

    def delete(
        self, client: str, path: str, recursive: bool = False, parent=None
    ):
        """Generator: delete *path* at the namespace manager; returns
        the removed file records, None when nothing was there."""
        removed = yield from self._ns(
            client, parent, "delete", "delete", path, recursive
        )
        self._forget_records()
        return removed

    def rename(self, client: str, src: str, dst: str, parent=None):
        """Generator: rename *src* to *dst* at the namespace manager."""
        yield from self._ns(client, parent, "rename", "rename", src, dst)
        self._forget_records()

    def _forget_records(self) -> None:
        # a delete or rename unbinds every path at or below its
        # arguments, under any spelling the cache keyed them by; these
        # are rare beside appends and reads, so drop everything
        if self._record_cache is not None:
            self._record_cache.clear()

    def append_file(
        self,
        client: str,
        path: str,
        payload: Payload,
        parent=None,
        blob_id: Optional[int] = None,
    ):
        """Generator: the paper's two-step append — look the file up,
        append to its BLOB, bump the namespace size to the append's end
        offset. Returns the BLOB version generated.

        An open stream commits a write-behind block with the *blob_id*
        of the file record it holds, and skips the lookup."""
        sp = self.obs.tracer.start(
            "bsfs.append",
            cat="bsfs",
            parent=parent,
            track=client,
            path=path,
            nbytes=len(payload),
        )
        if blob_id is None:
            blob_id = (yield from self._lookup(client, sp, path)).blob_id
        version, _offset, group_end = yield from self.blobseer.update(
            client, blob_id, payload, parent=sp
        )
        # the appender learns its publish round's end offset from the
        # BLOB layer; concurrent appenders may report in any order (the
        # namespace size is a monotonic max). Under group commit only
        # the batch leader reports — one size bump lands a whole batch.
        if group_end is not None:
            yield from self._ns(
                client, sp, "update_size", "update_size", path, group_end
            )
        sp.finish(version=version)
        return version

    def read_file(
        self, client: str, path: str, offset: int, nbytes: int, parent=None
    ):
        """Generator: look the file up and read a range of its BLOB.
        Returns ``(version, data)`` (data is None under the DES runtime,
        which moves no real bytes)."""
        sp = self.obs.tracer.start(
            "bsfs.read",
            cat="bsfs",
            parent=parent,
            track=client,
            path=path,
            offset=offset,
            nbytes=nbytes,
        )
        record = yield from self._lookup(client, sp, path)
        version, data = yield from self.blobseer.read(
            client, record.blob_id, offset, nbytes, parent=sp
        )
        sp.finish(version=version)
        return version, data


class AppendStreamCore:
    """Write-behind append-stream logic, engine-agnostic.

    Buffers small writes and commits ~block-sized batches, each as one
    BLOB append followed by a namespace size bump — so records stay
    intact when many appenders interleave in a shared file. The runtime
    shims own locking and lifecycle; this core owns batching and the
    commit protocol.
    """

    def __init__(
        self,
        protocol: BSFSProtocol,
        client: str,
        path: str,
        blob_id: int,
        block_size: int,
        buffered: bool = True,
    ) -> None:
        self.protocol = protocol
        self.client = client
        self.path = path
        self.blob_id = blob_id
        self.buffer: Optional[WriteBehindBuffer] = (
            WriteBehindBuffer(block_size) if buffered else None
        )
        #: number of BLOB appends issued (tests the write-behind batching)
        self.appends_issued = 0
        self._c_flushes = protocol.obs.registry.counter(
            "bsfs.writebehind.flushes"
        )

    def write(self, data: bytes):
        """Generator: accept *data*, committing any batches it completes."""
        if self.buffer is None:
            yield from self._commit(data)
            return
        for block in self.buffer.add(data):
            yield from self._commit(block)

    def flush(self):
        """Generator: commit the buffered partial block right now."""
        if self.buffer is not None:
            block = self.buffer.drain()
            if block:
                yield from self._commit(block)

    def _commit(self, block: bytes):
        yield from self.protocol.append_file(
            self.client, self.path, Payload(block), blob_id=self.blob_id
        )
        self.appends_issued += 1
        if self.buffer is not None:
            self._c_flushes.inc()


class ReadStreamCore:
    """Whole-block prefetching read-stream logic, engine-agnostic.

    On a cache miss the core fetches the entire block (block size ==
    BLOB page size) containing the requested range; a 4 KB record read
    touches the BlobSeer service only once per block. A cached partial
    tail block that has since grown is invalidated and refetched.
    """

    def __init__(
        self,
        protocol: BSFSProtocol,
        client: str,
        path: str,
        blob_id: int,
        page_size: int,
        cache: Optional[ReadBlockCache] = None,
    ) -> None:
        self.protocol = protocol
        self.client = client
        self.path = path
        self.blob_id = blob_id
        self.page_size = page_size
        self.cache = cache
        #: lifetime counter of BLOB reads issued (prefetch effectiveness)
        self.fetches = 0

    def read_range(self, offset: int, nbytes: int, known_size: int):
        """Generator: read ``[offset, offset+nbytes)`` — already clipped
        to *known_size* by the caller — block by block through the
        cache. Returns the bytes (None under the DES runtime)."""
        pieces: List[Optional[bytes]] = []
        pos, remaining = offset, nbytes
        while remaining > 0:
            index = pos // self.page_size
            in_block = pos - index * self.page_size
            take = min(remaining, self.page_size - in_block)
            piece = yield from self._read_block(index, in_block, take, known_size)
            pieces.append(piece)
            pos += take
            remaining -= take
        if any(piece is None for piece in pieces):
            return None
        return b"".join(pieces)

    def _read_block(self, index: int, offset: int, size: int, known_size: int):
        base = index * self.page_size
        if self.cache is None:
            self.fetches += 1
            _version, data = yield from self.protocol.blobseer.read(
                self.client, self.blob_id, base + offset, size
            )
            return data
        block = self.cache.lookup(index)
        if block is not None and len(block) < offset + size:
            # a previously partial tail block has grown since it was cached
            self.cache.invalidate(index)
            block = self.cache.lookup(index)  # recounted as the miss it now is
        if block is None:
            length = min(self.page_size, known_size - base)
            self.fetches += 1
            _version, block = yield from self.protocol.blobseer.read(
                self.client, self.blob_id, base, length
            )
            self.cache.insert(index, block)
        return block[offset : offset + size] if block is not None else None


def clip_block_locations(
    layout, size: int, offset: int, length: int
) -> List[BlockLocation]:
    """``(offset, length, providers)`` layout entries (see
    :func:`~repro.blobseer.protocol.compute_layout`) clipped to the
    namespace file *size* and intersected with ``[offset, offset+length)``
    — what the modified framework hands the jobtracker for
    locality-aware scheduling."""
    out: List[BlockLocation] = []
    for start, span, providers in layout:
        visible = min(span, max(0, size - start))
        if visible <= 0:
            continue
        if start + visible > offset and start < offset + length:
            out.append(BlockLocation(offset=start, length=visible, hosts=providers))
    return out

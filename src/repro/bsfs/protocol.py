"""The BSFS client protocol, sans-IO.

The file layer's behaviours — the paper's two-step append (BLOB append,
then a file-size update at the centralized namespace manager), namespace
lookups and write-behind batching — live here as engine-parameterized
generators, shared by the simulated deployment
(:mod:`repro.bsfs.simulated`) and the threaded Hadoop ``FileSystem``
facade (:mod:`repro.bsfs.client`). Whole-block prefetching is the read
core both file systems share, in :mod:`repro.bsfs.cache`.

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
from .cache import WriteBehindBuffer

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
        #: goes stale only when its *path* is rebound: :meth:`delete`,
        #: :meth:`rename` and an overwriting :meth:`create_file` empty
        #: the cache. Namespace mutations that bypass this protocol
        #: object are not seen.
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

    def _ns(self, parent, method, *args):
        """Generator: one charged round trip to the namespace manager,
        its op span under *parent*."""
        self._c_ns_rpcs.inc()
        return (yield self.engine.call(parent, "ns", method, *args))

    def _lookup(self, parent, path: str):
        """Generator: resolve *path* to its file record, through the
        client record cache when enabled."""
        cache = self._record_cache
        if cache is not None:
            record = cache.get(path)
            if record is not None:
                self._c_ns_cache_hits.inc()
                return record
            self._c_ns_cache_misses.inc()
        record = yield from self._ns(parent, "get", path)
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
            sp, "create", path, blob_id, page_size, overwrite
        )
        if overwrite:
            # an overwrite rebinds the path to a new BLOB
            self._forget_records()
        sp.finish(blob=blob_id)
        return record

    def delete(
        self, client: str, path: str, recursive: bool = False, parent=None
    ):
        """Generator: delete *path* at the namespace manager; returns
        the removed file records, None when nothing was there."""
        removed = yield from self._ns(parent, "delete", path, recursive)
        self._forget_records()
        return removed

    def rename(self, client: str, src: str, dst: str, parent=None):
        """Generator: rename *src* to *dst* at the namespace manager."""
        yield from self._ns(parent, "rename", src, dst)
        self._forget_records()

    def _forget_records(self) -> None:
        # a delete, a rename or an overwriting create unbinds every
        # path at or below its arguments, under any spelling the cache
        # keyed them by; these are rare beside appends and reads, so
        # drop everything
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
            nbytes=payload.nbytes,
        )
        if blob_id is None:
            blob_id = (yield from self._lookup(sp, path)).blob_id
        version, _offset, group_end = yield from self.blobseer.update(
            client, blob_id, payload, parent=sp
        )
        # the appender learns its publish round's end offset from the
        # BLOB layer; concurrent appenders may report in any order (the
        # namespace size is a monotonic max). Under group commit only
        # the batch leader reports — one size bump lands a whole batch.
        if group_end is not None:
            yield from self._ns(sp, "update_size", path, group_end)
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
        record = yield from self._lookup(sp, path)
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

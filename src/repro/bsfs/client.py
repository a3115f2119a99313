"""BSFS — the BlobSeer File System layer, as integrated into Hadoop.

A shim over :mod:`repro.bsfs.protocol` on the threaded engine. Unlike
the HDFS baseline, :meth:`BSFSFileSystem.append` *works*: any number of
clients may hold append streams on the same file concurrently, and the
BlobSeer versioning protocol serializes their blocks without writers
ever blocking each other or the readers.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace
from typing import List, Optional

from ..blobseer.client import BlobSeerService
from ..common.config import BlobSeerConfig
from ..common.fs import (
    BlockLocation,
    FileSystem,
    InputStream,
    OutputStream,
    normalize_path,
)
from ..obs import NULL_OBS, Observability
from .cache import STREAM_CACHE_BLOCKS, ReadBlockCache, ReadStreamCore
from .namespace import BSFSFile, NamespaceManager
from .protocol import AppendStreamCore, BSFSProtocol, clip_block_locations


class BSFS:
    """One BSFS deployment: BlobSeer service + centralized namespace manager."""

    def __init__(
        self,
        service: Optional[BlobSeerService] = None,
        config: Optional[BlobSeerConfig] = None,
        n_providers: int = 8,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        if obs is None:
            obs = service.obs if service is not None else NULL_OBS
        self.obs = obs
        self.service = service or BlobSeerService(
            config=config, n_providers=n_providers, seed=seed, obs=self.obs
        )
        self.namespace = NamespaceManager()
        #: per-stream totals: streams add their cache and write-behind
        #: counts to ``metrics.counters`` when they close
        self.metrics = SimpleNamespace(counters=defaultdict(float))
        self.engine = self.service.engine
        self.engine.bind("ns", self.namespace)
        self.protocol = BSFSProtocol(
            self.engine, self.service.protocol, obs=self.obs
        )

    def file_system(self, client_name: str = "client") -> "BSFSFileSystem":
        """A client endpoint bound to this deployment."""
        return BSFSFileSystem(self, client_name)

    @property
    def config(self) -> BlobSeerConfig:
        return self.service.config


class BSFSFileSystem(FileSystem):
    """Hadoop ``FileSystem`` facade over BSFS — with working append."""

    scheme = "bsfs"

    def __init__(self, deployment: BSFS, client_name: str) -> None:
        self.deployment = deployment
        self.client_name = client_name
        self.namespace = deployment.namespace

    # -- data paths ------------------------------------------------------------

    def create(self, path: str, overwrite: bool = False) -> "BSFSOutputStream":
        path = normalize_path(path)
        dep = self.deployment
        page_size = dep.config.page_size
        blob_id = dep.service.create_blob(page_size)
        record = dep.engine.run(
            dep.protocol.create_file(
                self.client_name, path, blob_id, page_size, overwrite=overwrite
            )
        )
        return BSFSOutputStream(self, path, record)

    def append(self, path: str) -> "BSFSOutputStream":
        """Open an existing file for appending — the operation this paper
        adds to the Hadoop stack. Multiple concurrent append streams on
        one path are explicitly supported."""
        path = normalize_path(path)
        record = self.namespace.get(path)
        return BSFSOutputStream(self, path, record)

    def open(self, path: str) -> "BSFSInputStream":
        path = normalize_path(path)
        record = self.namespace.get(path)
        return BSFSInputStream(self, path, record)

    # -- namespace mutations, through the protocol's record cache ------------------

    def delete(self, path: str, recursive: bool = False) -> bool:
        dep = self.deployment
        removed = dep.engine.run(
            dep.protocol.delete(self.client_name, path, recursive)
        )
        return removed is not None

    def rename(self, src: str, dst: str) -> None:
        dep = self.deployment
        dep.engine.run(dep.protocol.rename(self.client_name, src, dst))

    def get_block_locations(
        self, path: str, offset: int, length: int
    ) -> List[BlockLocation]:
        """Page-level layout from BlobSeer's new layout primitive, clipped
        to the file's namespace size — the scheduler's locality input."""
        record = self.namespace.get(path)
        size = self.namespace.get_status(path).size
        layout = self.deployment.service.layout(record.blob_id)
        return clip_block_locations(layout, size, offset, length)


class BSFSOutputStream(OutputStream):
    """Write/append stream with write-behind block buffering. Created by
    both ``create`` (fresh BLOB) and ``append`` (shared BLOB); every
    emitted block is one BLOB append."""

    def __init__(self, fs: BSFSFileSystem, path: str, record: BSFSFile) -> None:
        super().__init__(path)
        self.fs = fs
        self.record = record
        self._written = 0
        cfg = fs.deployment.config
        self._core = AppendStreamCore(
            fs.deployment.protocol,
            fs.client_name,
            path,
            record.blob_id,
            cfg.page_size,
            buffered=cfg.cache_enabled,
        )

    @property
    def appends_issued(self) -> int:
        """Number of BLOB appends issued (tests the write-behind batching)."""
        return self._core.appends_issued

    def write(self, data: bytes) -> int:
        with self._lock:
            self._check_open()
            if not data:
                return 0
            self._written += len(data)
            self.fs.deployment.engine.run(self._core.write(data))
            return len(data)

    def flush(self) -> None:
        """Commit any buffered partial block as an append right now —
        unlike HDFS, BSFS can make buffered data visible on demand."""
        with self._lock:
            self._check_open()
            self._flush_locked()

    def _flush_locked(self) -> None:
        self.fs.deployment.engine.run(self._core.flush())

    def tell(self) -> int:
        with self._lock:
            return self._written

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._closed = True
            counters = self.fs.deployment.metrics.counters
            counters["bsfs.appends_issued"] += self.appends_issued
            buffer = self._core.buffer
            if buffer is not None:
                counters["bsfs.writebehind.flushes"] += buffer.flushes

    def discard(self) -> None:
        """Drop buffered data and close without appending it — already
        committed blocks stay (append atomicity is per block)."""
        with self._lock:
            if self._core.buffer is not None:
                self._core.buffer.drain()
            self._closed = True


class BSFSInputStream(InputStream):
    """Read stream with whole-block prefetching. The file size is
    tracked lazily: a read past the last known size re-reads it from the
    file's namespace record, so a reader can follow a file that
    concurrent appenders are still growing (the paper's pipelined
    Map/Reduce) without taking the namespace lock its appenders take."""

    def __init__(self, fs: BSFSFileSystem, path: str, record: BSFSFile) -> None:
        super().__init__(path)
        self.fs = fs
        self.record = record
        cfg = fs.deployment.config
        obs = fs.deployment.obs
        self._tracer = obs.tracer
        self._cache: Optional[ReadBlockCache] = (
            ReadBlockCache(
                record.page_size,
                STREAM_CACHE_BLOCKS,
                on_hit=obs.registry.counter("bsfs.cache.hits").inc,
                on_miss=obs.registry.counter("bsfs.cache.misses").inc,
            )
            if cfg.cache_enabled
            else None
        )
        self._core = ReadStreamCore(record.page_size, self._fetch, self._cache)
        self._known_size = record.size

    def refresh_size(self) -> int:
        """Re-read the file size from the record this stream opened.

        One attribute read, no lock: the namespace manager grows the
        size in place (a monotonic max, stored once its BLOB append has
        published), so the value read is one a reader may serve."""
        self._known_size = self.record.size
        return self._known_size

    @property
    def size(self) -> int:
        """Last known file size (may lag behind concurrent appenders)."""
        return self._known_size

    def _fetch(self, offset: int, nbytes: int, holes):
        dep = self.fs.deployment
        _version, data = yield from dep.protocol.blobseer.read(
            self.fs.client_name, self.record.blob_id, offset, nbytes, holes=holes
        )
        return data

    def _pread(self, offset: int, n: int, holes=None) -> bytes:
        with self._tracer.span(
            "bsfs.read",
            cat="bsfs",
            track=self.fs.client_name,
            path=self.path,
            offset=offset,
            nbytes=n,
        ):
            if offset + n > self._known_size:
                self.refresh_size()
            return self.fs.deployment.engine.run(
                self._core.read_range(offset, n, self._known_size, holes)
            )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._cache is not None:
                counters = self.fs.deployment.metrics.counters
                counters["bsfs.cache.hits"] += self._cache.hits
                counters["bsfs.cache.misses"] += self._cache.misses
                self._cache.invalidate()

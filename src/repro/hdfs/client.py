"""HDFS client: the :class:`~repro.common.fs.FileSystem` implementation.

A shim over :mod:`repro.hdfs.protocol` on the threaded engine. The
behaviours the paper calls out — chunk-granularity write buffering,
whole-chunk readahead, **no append**, single writer — live in the
protocol's chunk stream core and in the whole-block read core both file
systems share (:class:`~repro.bsfs.cache.ReadStreamCore`, one chunk
cached); the streams here add only what differs from the shared stream
lifecycle of :mod:`repro.common.fs`. The datanodes are BlobSeer
:class:`~repro.blobseer.provider.Provider` objects: storage without
policy, holding immutable chunks by key.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..blobseer.backends import InMemoryPageStore
from ..blobseer.provider import Provider
from ..bsfs.cache import ReadBlockCache, ReadStreamCore
from ..common.config import HDFSConfig
from ..common.fs import (
    BlockLocation,
    FileSystem,
    InputStream,
    OutputStream,
    normalize_path,
)
from ..engine.replica import ReplicaSelector
from ..engine.threaded import ThreadedEngine
from ..obs import NULL_OBS, Observability
from ..obs.events import fault_crash, fault_recover
from .namenode import INodeFile, NameNode
from .protocol import ChunkStreamCore, HDFSProtocol


class HDFSCluster:
    """One in-process HDFS deployment: a namenode plus datanodes."""

    def __init__(
        self,
        n_datanodes: int = 4,
        config: Optional[HDFSConfig] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config or HDFSConfig()
        self.config.validate()
        self.seed = seed
        self.obs = obs or NULL_OBS
        names = [f"datanode-{i:03d}" for i in range(n_datanodes)]
        self.datanodes: Dict[str, Provider] = {
            n: Provider(n, InMemoryPageStore()) for n in names
        }
        self.namenode = NameNode(names, config=self.config, seed=seed)
        self.engine = ThreadedEngine(seed=seed, obs=self.obs)
        self.engine.bind("nn", self.namenode)
        self.engine.bind_providers(self.datanodes)
        self.protocol = HDFSProtocol(self.engine, self.config)

    def file_system(self, client_name: str = "client") -> "HDFSFileSystem":
        """A client endpoint bound to this deployment."""
        return HDFSFileSystem(self, client_name)

    def fail_datanode(self, name: str) -> None:
        """Fault injection: crash a datanode and exclude it from placement."""
        self.datanodes[name].fail()
        self.namenode.mark_down(name)
        fault_crash(self.obs, "datanode", name)

    def recover_datanode(self, name: str) -> None:
        self.datanodes[name].recover()
        self.namenode.mark_up(name)
        fault_recover(self.obs, "datanode", name)


class HDFSFileSystem(FileSystem):
    """Hadoop ``FileSystem`` facade over an :class:`HDFSCluster`."""

    scheme = "hdfs"

    def __init__(self, cluster: HDFSCluster, client_name: str) -> None:
        self.cluster = cluster
        self.client_name = client_name
        self.namespace = cluster.namenode

    # -- data paths ---------------------------------------------------------------

    def create(self, path: str, overwrite: bool = False) -> "HDFSOutputStream":
        path = normalize_path(path)
        self.cluster.namenode.create(path, self.client_name, overwrite=overwrite)
        return HDFSOutputStream(self, path)

    def open(self, path: str) -> "HDFSInputStream":
        path = normalize_path(path)
        inode = self.cluster.namenode.get_file(path)
        return HDFSInputStream(self, path, inode)

    def append(self, path: str) -> OutputStream:
        """Present in the interface, refused by this file system."""
        self.cluster.namenode.append(path)
        raise AssertionError("unreachable")  # pragma: no cover

    def get_block_locations(
        self, path: str, offset: int, length: int
    ) -> List[BlockLocation]:
        return self.cluster.namenode.get_block_locations(path, offset, length)


class HDFSOutputStream(OutputStream):
    """Write stream with chunk-granularity client buffering."""

    def __init__(self, fs: HDFSFileSystem, path: str) -> None:
        super().__init__(path)
        self.fs = fs
        self._core = ChunkStreamCore(fs.cluster.protocol, fs.client_name, path)

    def write(self, data: bytes) -> int:
        with self._lock:
            self._check_open()
            self.fs.cluster.engine.run(self._core.write(data))
            return len(data)

    def flush(self) -> None:
        """A no-op by design: HDFS only ships full chunks (plus the
        final partial chunk at close)."""
        with self._lock:
            self._check_open()

    def tell(self) -> int:
        with self._lock:
            return self._core.written

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.fs.cluster.engine.run(self._core.close())
            self._closed = True

    def discard(self) -> None:
        """Abandon the under-construction file entirely (never visible)."""
        with self._lock:
            if self._closed:
                return
            self._core.buffer.clear()
            self.fs.cluster.namenode.abandon(self.path, self.fs.client_name)
            self._closed = True


class HDFSInputStream(InputStream):
    """Read stream with whole-chunk readahead: the shared read core over
    a one-chunk cache, failing reads over across replicas through the
    stream's :class:`~repro.engine.replica.ReplicaSelector` (seeded
    rotation + dead-datanode memory, scoped to the stream's lifetime)."""

    def __init__(self, fs: HDFSFileSystem, path: str, inode: INodeFile) -> None:
        super().__init__(path)
        self.fs = fs
        self._blocks = inode.blocks
        #: total file size (a closed HDFS file never grows)
        self.size = inode.size
        self._selector = ReplicaSelector(
            fs.cluster.engine.rng("replica", "hdfs-read", fs.client_name, path)
        )
        chunk = fs.cluster.config.chunk_size
        self._core = ReadStreamCore(chunk, self._fetch, ReadBlockCache(chunk, 1))

    @property
    def _dead(self):
        """Datanodes this stream has seen failing (sweep-last memory)."""
        return self._selector.dead

    def seek(self, offset: int) -> None:
        """A closed HDFS file never grows: the cursor stays inside it."""
        if offset > self.size:
            raise ValueError(f"seek to {offset} outside [0, {self.size}]")
        super().seek(offset)

    def _fetch(self, offset: int, nbytes: int, holes):
        # every chunk but the last is chunk_size long (the namenode
        # refuses any other layout); one writer leaves no holes
        index, at = divmod(offset, self._core.block_size)
        return (
            yield from self.fs.cluster.protocol.read_block_range(
                self.fs.client_name, self._blocks[index], at, nbytes, self._selector
            )
        )

    def _pread(self, offset: int, n: int, holes=None) -> bytes:
        return self.fs.cluster.engine.run(
            self._core.read_range(offset, n, self.size, holes)
        )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._core.cache.invalidate()

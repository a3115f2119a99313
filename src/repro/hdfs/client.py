"""HDFS client: the :class:`~repro.common.fs.FileSystem` implementation.

A shim over :mod:`repro.hdfs.protocol` on the threaded engine. The
behaviours the paper calls out — chunk-granularity write buffering,
whole-chunk readahead, **no append**, single writer — live in the
protocol's stream cores; the streams here keep only locking and
lifecycle.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..common.config import HDFSConfig
from ..common.errors import FileClosedError
from ..common.fs import (
    BlockLocation,
    FileStatus,
    FileSystem,
    InputStream,
    OutputStream,
    normalize_path,
)
from ..engine.threaded import ThreadedEngine
from ..obs import NULL_OBS, Observability
from .datanode import DataNode
from .namenode import INodeFile, NameNode
from .protocol import BlockReadCore, ChunkStreamCore, HDFSProtocol


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
        self.datanodes: Dict[str, DataNode] = {n: DataNode(n) for n in names}
        self.namenode = NameNode(names, config=self.config, seed=seed)
        self.engine = ThreadedEngine(seed=seed, obs=self.obs)
        self.engine.bind("nn", self.namenode)
        for name in names:
            # resolve through the dict at call time so restarted
            # datanode objects are picked up
            self.engine.bind_data(
                name,
                lambda bid, data, n=name: self.datanodes[n].put_block(bid, data),
                lambda bid, off, sz, n=name: self.datanodes[n].get_block(
                    bid, off, sz
                ),
            )
        self.protocol = HDFSProtocol(self.engine, self.config)

    def file_system(self, client_name: str = "client") -> "HDFSFileSystem":
        """A client endpoint bound to this deployment."""
        return HDFSFileSystem(self, client_name)

    def fail_datanode(self, name: str) -> None:
        """Fault injection: crash a datanode and exclude it from placement."""
        self.datanodes[name].fail()
        self.namenode.mark_down(name)
        self.engine.fail_endpoint(name)

    def recover_datanode(self, name: str) -> None:
        self.datanodes[name].recover()
        self.namenode.mark_up(name)
        self.engine.recover_endpoint(name)


class HDFSFileSystem(FileSystem):
    """Hadoop ``FileSystem`` facade over an :class:`HDFSCluster`."""

    scheme = "hdfs"

    def __init__(self, cluster: HDFSCluster, client_name: str) -> None:
        self.cluster = cluster
        self.client_name = client_name

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

    # -- namespace ------------------------------------------------------------------

    def mkdirs(self, path: str) -> None:
        self.cluster.namenode.mkdirs(path)

    def delete(self, path: str, recursive: bool = False) -> bool:
        return self.cluster.namenode.delete(path, recursive=recursive) is not None

    def rename(self, src: str, dst: str) -> None:
        self.cluster.namenode.rename(src, dst)

    def exists(self, path: str) -> bool:
        return self.cluster.namenode.exists(path)

    def get_status(self, path: str) -> FileStatus:
        return self.cluster.namenode.get_status(path)

    def list_dir(self, path: str) -> List[FileStatus]:
        return self.cluster.namenode.list_dir(path)

    def get_block_locations(
        self, path: str, offset: int, length: int
    ) -> List[BlockLocation]:
        return self.cluster.namenode.get_block_locations(path, offset, length)


class HDFSOutputStream(OutputStream):
    """Write stream with chunk-granularity client buffering."""

    def __init__(self, fs: HDFSFileSystem, path: str) -> None:
        self.fs = fs
        self.path = path
        self._closed = False
        self._lock = threading.Lock()
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

    def _check_open(self) -> None:
        if self._closed:
            raise FileClosedError(self.path)


class HDFSInputStream(InputStream):
    """Read stream with whole-chunk readahead caching."""

    def __init__(self, fs: HDFSFileSystem, path: str, inode: INodeFile) -> None:
        self.fs = fs
        self.path = path
        self._pos = 0
        self._closed = False
        self._lock = threading.Lock()
        self._core = BlockReadCore(
            fs.cluster.protocol, fs.client_name, path, inode.blocks
        )

    @property
    def _dead(self):
        """Datanodes this stream has seen failing (sweep-last memory)."""
        return self._core.selector.dead

    @property
    def fetches(self) -> int:
        """Lifetime counter of datanode fetches (readahead effectiveness)."""
        return self._core.fetches

    @property
    def size(self) -> int:
        """Total file size."""
        return self._core.size

    # -- positioning -----------------------------------------------------------------

    def seek(self, offset: int) -> None:
        with self._lock:
            self._check_open()
            if offset < 0 or offset > self._core.size:
                raise ValueError(f"seek to {offset} outside [0, {self._core.size}]")
            self._pos = offset

    def tell(self) -> int:
        with self._lock:
            return self._pos

    # -- reads ------------------------------------------------------------------------

    def read(self, n: int) -> bytes:
        with self._lock:
            self._check_open()
            data = self.fs.cluster.engine.run(self._core.pread(self._pos, n))
            self._pos += len(data)
            return data

    def pread(self, offset: int, n: int) -> bytes:
        with self._lock:
            self._check_open()
            return self.fs.cluster.engine.run(self._core.pread(offset, n))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._core.cached = None

    def _check_open(self) -> None:
        if self._closed:
            raise FileClosedError(self.path)

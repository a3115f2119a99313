"""HDFS namenode — centralized file metadata and chunk placement.

The namenode keeps the namespace (it is a
:class:`~repro.common.namespace.NamespaceService`), maps each file to its
list of chunks, and answers chunk-location queries (what makes the
jobtracker's scheduling data-location aware). Placement follows the
paper's description: "When distributing the chunks among datanodes,
HDFS picks random servers to store the data".

Semantics reproduced from the paper's Hadoop release:

* write-once-read-many — a file under construction is invisible to
  readers and becomes immutable at ``complete()``;
* single writer per file;
* **no append** — :meth:`append` raises
  :class:`~repro.common.errors.AppendNotSupportedError`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..common.config import HDFSConfig
from ..common.errors import (
    AppendNotSupportedError,
    ConcurrentWriteError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    ImmutableFileError,
    IsADirectoryError_,
    ReplicationError,
)
from ..common.fs import BlockLocation, FileStatus
from ..common.namespace import NamespaceService
from ..common.rng import substream
from .block import BlockId, BlockInfo


@dataclass(slots=True)
class INodeFile:
    """Per-file metadata payload stored in the namespace tree."""

    inode: int
    blocks: List[BlockInfo] = field(default_factory=list)
    under_construction: bool = True
    writer: Optional[str] = None
    replication: int = 1
    block_size: int = 0
    creation_time: float = field(default_factory=time.time)

    @property
    def size(self) -> int:
        return sum(b.length for b in self.blocks)

    @property
    def visible(self) -> bool:
        """Paper-era HDFS shows a file to readers only once it is closed."""
        return not self.under_construction

    def status(self, path: str, mtime: float) -> FileStatus:
        return FileStatus(
            path=path,
            is_directory=False,
            size=self.size,
            replication=self.replication,
            block_size=self.block_size,
            modification_time=mtime,
        )


class NameNode(NamespaceService):
    """The centralized master of the HDFS deployment."""

    def __init__(
        self,
        datanode_names: Sequence[str],
        config: Optional[HDFSConfig] = None,
        seed: int = 0,
    ) -> None:
        if not datanode_names:
            raise ValueError("need at least one datanode")
        super().__init__()
        self.config = config or HDFSConfig()
        self.config.validate()
        self._datanodes = list(datanode_names)
        self._down: set[str] = set()
        self._rng = substream(seed, "hdfs-placement")
        self._inode_ids = itertools.count(1)

    # -- datanode membership ------------------------------------------------------

    def mark_down(self, name: str) -> None:
        """Exclude a datanode from future placement."""
        with self._lock:
            if name not in self._datanodes:
                raise KeyError(name)
            self._down.add(name)

    def mark_up(self, name: str) -> None:
        with self._lock:
            self._down.discard(name)

    # -- file lifecycle -------------------------------------------------------------

    def create(self, path: str, writer: str, overwrite: bool = False) -> INodeFile:
        """Register a new file under construction, held by *writer*."""
        with self._lock:
            try:
                existing = self.tree.lookup(path)
            except FileNotFoundInNamespaceError:
                existing = None
            if existing is not None:
                if existing.is_directory:
                    raise IsADirectoryError_(path)
                payload: INodeFile = existing.payload
                if payload.under_construction:
                    raise ConcurrentWriteError(
                        f"{path} is being written by {payload.writer!r}"
                    )
                if not overwrite:
                    raise FileAlreadyExistsError(path)
            inode = INodeFile(
                inode=next(self._inode_ids),
                writer=writer,
                replication=self.config.replication,
                block_size=self.config.chunk_size,
            )
            self.tree.create_file(path, inode, overwrite=True)
            return inode

    def allocate_block(self, path: str, writer: str) -> Tuple[BlockId, Tuple[str, ...]]:
        """Pick random datanodes for the file's next chunk."""
        with self._lock:
            inode = self._writable_inode(path, writer)
            alive = [d for d in self._datanodes if d not in self._down]
            k = min(inode.replication, len(alive))
            if k < 1:
                raise ReplicationError("no alive datanodes")
            picks = self._rng.choice(len(alive), size=k, replace=False)
            targets = tuple(alive[int(i)] for i in picks)
            return BlockId(inode.inode, len(inode.blocks)), targets

    def commit_block(
        self,
        path: str,
        writer: str,
        block_id: BlockId,
        length: int,
        datanodes: Tuple[str, ...],
    ) -> None:
        """Record a chunk the client finished writing.

        HDFS's layout rule: every chunk but the last is ``chunk_size``
        long, so a longer chunk, or any chunk after a short one, is
        refused, and a reader finds chunk *i* at *i* × ``chunk_size``.
        """
        chunk_size = self.config.chunk_size
        if not 0 < length <= chunk_size:
            raise ValueError(
                f"a block holds 1 to {chunk_size} bytes, not {length}"
            )
        with self._lock:
            inode = self._writable_inode(path, writer)
            if block_id.index != len(inode.blocks):
                raise ValueError(
                    f"out-of-order block commit: got index {block_id.index}, "
                    f"expected {len(inode.blocks)}"
                )
            if inode.blocks and inode.blocks[-1].length < chunk_size:
                raise ValueError(
                    f"{path}: block {block_id.index} follows a short block"
                )
            inode.blocks.append(BlockInfo(block_id, length, datanodes))

    def complete(self, path: str, writer: str) -> None:
        """Close the file: it becomes visible and immutable."""
        with self._lock:
            inode = self._writable_inode(path, writer)
            inode.under_construction = False
            inode.writer = None

    def abandon(self, path: str, writer: str) -> None:
        """Drop an under-construction file (failed writer cleanup)."""
        with self._lock:
            inode = self._writable_inode(path, writer)
            self.tree.delete(path)

    def recover_lease(self, path: str) -> bool:
        """Force-close a file abandoned under construction (HDFS's lease
        recovery): the chunks committed so far become the file's final,
        visible content. Returns False when the file was already closed.
        """
        with self._lock:
            entry = self.tree.lookup_file(path)
            inode: INodeFile = entry.payload
            if not inode.under_construction:
                return False
            inode.under_construction = False
            inode.writer = None
            return True

    def append(self, path: str) -> None:
        """Not supported — exactly the paper's Hadoop release behaviour."""
        raise AppendNotSupportedError(
            "HDFS does not support append: the operation exists in the "
            "FileSystem interface but is not implemented in this release"
        )

    def _writable_inode(self, path: str, writer: str) -> INodeFile:
        entry = self.tree.lookup_file(path)
        inode: INodeFile = entry.payload
        if not inode.under_construction:
            raise ImmutableFileError(f"{path} is closed (write-once)")
        if inode.writer != writer:
            raise ConcurrentWriteError(
                f"{path} is held by {inode.writer!r}, not {writer!r}"
            )
        return inode

    # -- read-side metadata -----------------------------------------------------------

    def get_file(self, path: str) -> INodeFile:
        """Metadata of a closed (visible) file."""
        with self._lock:
            return self._visible_file(path)

    def _visible_file(self, path: str) -> INodeFile:
        entry = self._lookup_visible(path)
        if entry.is_directory:
            raise IsADirectoryError_(path)
        return entry.payload

    def get_block_locations(
        self, path: str, offset: int, length: int
    ) -> List[BlockLocation]:
        """Which datanodes hold each chunk overlapping the range."""
        with self._lock:
            inode = self._visible_file(path)
            out: List[BlockLocation] = []
            pos = 0
            for block in inode.blocks:
                if pos + block.length > offset and pos < offset + length:
                    out.append(
                        BlockLocation(
                            offset=pos, length=block.length, hosts=block.datanodes
                        )
                    )
                pos += block.length
            return out

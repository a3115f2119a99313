"""HDFS datanode — chunk storage.

Like a BlobSeer provider, a datanode is storage without policy: it holds
immutable chunk replicas and serves byte ranges of them. Replication is
client-driven here (the client writes each replica) rather than modeling
the full datanode-to-datanode pipeline; the bytes moved are the same.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..common.errors import PageNotFoundError, ProviderUnavailableError
from .block import BlockId


class DataNode:
    """One chunk-storage machine."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._blocks: dict[bytes, bytes] = {}
        self._lock = threading.Lock()
        self._failed = False
        #: lifetime counters
        self.bytes_stored = 0
        self.bytes_served = 0

    # -- fault injection ---------------------------------------------------------

    def fail(self) -> None:
        """Crash the datanode: subsequent calls error."""
        with self._lock:
            self._failed = True

    def recover(self) -> None:
        """Bring it back (stored chunks survive)."""
        with self._lock:
            self._failed = False

    @property
    def is_failed(self) -> bool:
        return self._failed

    def _check_alive(self) -> None:
        if self._failed:
            raise ProviderUnavailableError(f"datanode {self.name} is down")

    # -- chunk I/O ------------------------------------------------------------------

    def put_block(self, block_id: BlockId, data: bytes) -> None:
        """Store one immutable chunk replica."""
        self._check_alive()
        if not data:
            raise ValueError("empty block")
        with self._lock:
            self._blocks[block_id.key()] = data
            self.bytes_stored += len(data)

    def get_block(
        self, block_id: BlockId, offset: int = 0, size: Optional[int] = None
    ) -> bytes:
        """Serve ``[offset, offset+size)`` of a stored chunk."""
        self._check_alive()
        with self._lock:
            data = self._blocks.get(block_id.key())
        if data is None:
            raise PageNotFoundError(f"datanode {self.name}: no block {block_id}")
        if size is None:
            size = len(data) - offset
        if offset < 0 or size < 0 or offset + size > len(data):
            raise PageNotFoundError(
                f"range [{offset}, {offset + size}) outside block of "
                f"{len(data)} bytes"
            )
        piece = data[offset : offset + size]
        with self._lock:
            self.bytes_served += len(piece)
        return piece

"""HDFS block (chunk) model.

HDFS splits each file into fixed-size chunks (64 MB in the paper) placed
on datanodes. A block is identified by the file's inode id plus its
index within the file; the namenode tracks, per block, its byte length
and the datanodes holding replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True, slots=True)
class BlockId:
    """Identity of one chunk of one file."""

    inode: int
    index: int

    def key(self) -> bytes:
        """Stable byte key for datanode-local storage."""
        return f"block/{self.inode}/{self.index}".encode()


@dataclass(frozen=True, slots=True)
class BlockInfo:
    """What the namenode records about one block."""

    block_id: BlockId
    length: int
    datanodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative block length")
        if not self.datanodes:
            raise ValueError("block must have at least one datanode")

"""HDFS reimplementation — the paper's baseline storage layer.

Namenode + datanodes with 64 MB chunks, random placement, client write
buffering, whole-chunk readahead, write-once-read-many semantics and —
crucially for this paper — *no* append support: the call exists in the
:class:`~repro.common.fs.FileSystem` interface but raises
:class:`~repro.common.errors.AppendNotSupportedError`.

The namenode is a :class:`~repro.common.namespace.NamespaceService`, as
the BSFS namespace manager is, and the datanodes are BlobSeer
:class:`~repro.blobseer.provider.Provider` objects over an in-memory page
store: both are the same dumb chunk stores the paper describes.
"""

from .block import BlockId, BlockInfo
from .namenode import INodeFile, NameNode
from .client import HDFSCluster, HDFSFileSystem, HDFSInputStream, HDFSOutputStream

__all__ = [
    "BlockId",
    "BlockInfo",
    "INodeFile",
    "NameNode",
    "HDFSCluster",
    "HDFSFileSystem",
    "HDFSInputStream",
    "HDFSOutputStream",
]

"""BlobSeer's decentralized metadata: versioned segment trees over a DHT
of metadata providers."""

from .segment_tree import (
    NodeKey,
    TreeNode,
    build_version,
    capacity_for,
    iter_all_pages,
    query_pages,
    tree_node,
)
from .dht import MetadataDHT, RecordingStore, placement_hash

__all__ = [
    "NodeKey",
    "TreeNode",
    "build_version",
    "capacity_for",
    "iter_all_pages",
    "query_pages",
    "tree_node",
    "MetadataDHT",
    "RecordingStore",
    "placement_hash",
]

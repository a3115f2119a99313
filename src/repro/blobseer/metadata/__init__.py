"""BlobSeer's decentralized metadata: versioned segment trees over a DHT
of metadata providers. A node is its int key and a compact value: a
leaf's fragment tuple, or one int naming an inner node's children."""

from .segment_tree import (
    NodeKey,
    NodeValue,
    build_version,
    capacity_for,
    iter_all_pages,
    query_pages,
)
from .dht import MetadataDHT, RecordingStore, placement_hash

__all__ = [
    "NodeKey",
    "NodeValue",
    "build_version",
    "capacity_for",
    "iter_all_pages",
    "query_pages",
    "MetadataDHT",
    "RecordingStore",
    "placement_hash",
]

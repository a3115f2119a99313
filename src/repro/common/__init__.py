"""Shared substrate: units, errors, RNG streams, the abstract
file-system interface, CRC framing, and configuration."""

from .units import KiB, MiB, GiB, TiB, CHUNK_SIZE, RECORD_SIZE
from .errors import ReproError
from .fs import FileSystem, FileStatus, BlockLocation, InputStream, OutputStream
from .config import (
    BlobSeerConfig,
    HDFSConfig,
    MapReduceConfig,
    ClusterConfig,
    ExperimentConfig,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "CHUNK_SIZE",
    "RECORD_SIZE",
    "ReproError",
    "FileSystem",
    "FileStatus",
    "BlockLocation",
    "InputStream",
    "OutputStream",
    "BlobSeerConfig",
    "HDFSConfig",
    "MapReduceConfig",
    "ClusterConfig",
    "ExperimentConfig",
]

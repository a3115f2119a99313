"""Abstract file-system interface, mirroring Hadoop's ``FileSystem`` class.

The Hadoop Map/Reduce framework "accesses the storage layer through an
interface that exposes the basic functions of a file system"; both our
HDFS reimplementation and BSFS implement this interface, so the framework
(and the applications) are storage-agnostic. As in the paper's Hadoop
release, ``append`` is *present in the interface* but a concrete file
system may refuse it (HDFS raises
:class:`~repro.common.errors.AppendNotSupportedError`).
"""

from __future__ import annotations

import abc
import posixpath
from dataclasses import dataclass, field
from typing import List


def normalize_path(path: str) -> str:
    """Canonicalize a slash-separated absolute path.

    Accepts relative paths by anchoring them at ``/``; collapses ``.``,
    ``..`` and duplicate separators; the root is ``"/"``.
    """
    if not path:
        raise ValueError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    # POSIX allows normpath("//") == "//"; collapse it for our purposes
    if norm.startswith("//"):
        norm = "/" + norm.lstrip("/")
    return norm


def parent_path(path: str) -> str:
    """Parent directory of a normalized path (parent of ``/`` is ``/``)."""
    return posixpath.dirname(normalize_path(path)) or "/"


def path_components(path: str) -> List[str]:
    """The non-root components of a normalized path, in order."""
    norm = normalize_path(path)
    if norm == "/":
        return []
    return norm.strip("/").split("/")


def join_path(*parts: str) -> str:
    """Join path fragments and normalize the result."""
    return normalize_path(posixpath.join("/", *[p.lstrip("/") for p in parts]))


@dataclass(frozen=True, slots=True)
class FileStatus:
    """Metadata returned by :meth:`FileSystem.get_status` / ``list_dir``."""

    path: str
    is_directory: bool
    size: int
    replication: int = 1
    block_size: int = 0
    modification_time: float = 0.0


@dataclass(frozen=True, slots=True)
class BlockLocation:
    """Location of one block/page of a file — the layout information both
    HDFS and (via the new BlobSeer primitive) BSFS expose to the
    Map/Reduce scheduler for locality-aware task placement."""

    offset: int
    length: int
    hosts: tuple[str, ...]


class InputStream(abc.ABC):
    """A positioned, seekable read stream (Hadoop's ``FSDataInputStream``)."""

    @abc.abstractmethod
    def read(self, n: int) -> bytes:
        """Read up to *n* bytes from the current position; ``b""`` at EOF."""

    @abc.abstractmethod
    def pread(self, offset: int, n: int) -> bytes:
        """Positional read that does not move the stream cursor."""

    @abc.abstractmethod
    def seek(self, offset: int) -> None:
        """Move the cursor to an absolute offset."""

    @abc.abstractmethod
    def tell(self) -> int:
        """Current cursor position."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the stream; further I/O raises ``FileClosedError``."""

    def __enter__(self) -> "InputStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class OutputStream(abc.ABC):
    """An append-only write stream (Hadoop's ``FSDataOutputStream``)."""

    @abc.abstractmethod
    def write(self, data: bytes) -> int:
        """Buffer/write *data* at the end of the stream; returns len(data)."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Push buffered data to the storage service."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release; further I/O raises ``FileClosedError``."""

    @abc.abstractmethod
    def tell(self) -> int:
        """Bytes written through this stream so far."""

    def discard(self) -> None:
        """Abandon the stream WITHOUT publishing buffered data.

        Used by task abort paths so a failed attempt contributes nothing.
        Subclasses with client-side buffering override this; the default
        is a plain close.
        """
        self.close()

    def __enter__(self) -> "OutputStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSystem(abc.ABC):
    """The storage contract the Map/Reduce framework programs against."""

    #: human-readable scheme, e.g. ``"hdfs"`` or ``"bsfs"``
    scheme: str = "abstract"

    # -- namespace ---------------------------------------------------------

    @abc.abstractmethod
    def create(self, path: str, overwrite: bool = False) -> OutputStream:
        """Create a new file and open it for writing (single writer)."""

    @abc.abstractmethod
    def open(self, path: str) -> InputStream:
        """Open an existing file for reading."""

    @abc.abstractmethod
    def append(self, path: str) -> OutputStream:
        """Open an existing file for appending.

        Part of the interface for every file system; HDFS raises
        ``AppendNotSupportedError`` exactly as the paper describes.
        """

    @abc.abstractmethod
    def mkdirs(self, path: str) -> None:
        """Create a directory and any missing ancestors (idempotent)."""

    @abc.abstractmethod
    def delete(self, path: str, recursive: bool = False) -> bool:
        """Delete a file or directory; returns False if absent."""

    @abc.abstractmethod
    def rename(self, src: str, dst: str) -> None:
        """Atomically move *src* to *dst* (the original Hadoop commit step)."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """True when the path names a file or directory."""

    @abc.abstractmethod
    def get_status(self, path: str) -> FileStatus:
        """Status of one path; raises ``FileNotFoundInNamespaceError``."""

    @abc.abstractmethod
    def list_dir(self, path: str) -> List[FileStatus]:
        """Statuses of the children of a directory, sorted by path."""

    @abc.abstractmethod
    def get_block_locations(
        self, path: str, offset: int, length: int
    ) -> List[BlockLocation]:
        """Which hosts store each block of ``[offset, offset+length)``.

        This is what makes the jobtracker's scheduler data-location aware.
        """

    # -- conveniences shared by both implementations -----------------------

    def read_all(self, path: str) -> bytes:
        """Slurp an entire file."""
        with self.open(path) as stream:
            out = bytearray()
            while True:
                piece = stream.read(8 * 1024 * 1024)
                if not piece:
                    break
                out += piece
            return bytes(out)

    def write_all(self, path: str, data: bytes, overwrite: bool = False) -> None:
        """Create a file holding exactly *data*."""
        with self.create(path, overwrite=overwrite) as stream:
            stream.write(data)

    def file_size(self, path: str) -> int:
        """Size in bytes of a file path."""
        return self.get_status(path).size

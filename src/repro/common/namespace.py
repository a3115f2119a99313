"""Hierarchical namespace tree and the namespace service built on it.

Both centralized metadata services of the paper's storage systems — the
HDFS *namenode* and the BSFS *namespace manager* — maintain a file-system
namespace mapping paths to per-file metadata. This module is the shared
tree they are built on, and :class:`NamespaceService`, the status,
listing and mutation calls they both serve over it under one lock. The payload
attached to each file is system-specific (block list for HDFS, BLOB id +
size for BSFS); it answers whether readers may see the file
(``visible``) and what its status is (``status(path, mtime)``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from .fs import FileStatus, normalize_path, parent_path, path_components


@dataclass(slots=True)
class Entry:
    """One namespace node: a directory (with children) or a file (with a
    system-specific payload)."""

    name: str
    is_directory: bool
    payload: Any = None
    children: Optional[Dict[str, "Entry"]] = None
    modification_time: float = field(default_factory=time.time)

    @classmethod
    def directory(cls, name: str) -> "Entry":
        return cls(name=name, is_directory=True, children={})

    @classmethod
    def file(cls, name: str, payload: Any) -> "Entry":
        return cls(name=name, is_directory=False, payload=payload)

    @property
    def visible(self) -> bool:
        """Whether readers may see the entry: a directory, or a file
        whose payload says so."""
        return self.is_directory or self.payload.visible


class NamespaceTree:
    """Path → entry tree with POSIX-ish operations.

    The tree takes no lock: its owner, a :class:`NamespaceService`,
    holds its one lock around every call, which makes each operation
    atomic — the coarse single lock matches the centralized nature of
    the services it models (a namenode / namespace manager is one
    process).
    """

    def __init__(self) -> None:
        self._root = Entry.directory("")

    # -- traversal helpers ----------------------------------------------------

    def _walk(self, path: str) -> Entry:
        """Entry at *path*; raises when any component is missing/not a dir."""
        entry = self._root
        for comp in path_components(path):
            if not entry.is_directory:
                raise NotADirectoryError_(f"{comp!r} under a file in {path!r}")
            assert entry.children is not None
            try:
                entry = entry.children[comp]
            except KeyError:
                raise FileNotFoundInNamespaceError(path) from None
        return entry

    def _walk_parent(self, path: str) -> Tuple[Entry, str]:
        """(parent directory entry, final component) of *path*."""
        comps = path_components(path)
        if not comps:
            raise ValueError("operation on the root directory")
        parent = self._walk(parent_path(path))
        if not parent.is_directory:
            raise NotADirectoryError_(parent_path(path))
        return parent, comps[-1]

    # -- queries ------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        try:
            self._walk(path)
            return True
        except (FileNotFoundInNamespaceError, NotADirectoryError_):
            return False

    def lookup(self, path: str) -> Entry:
        """Entry at *path* (raises ``FileNotFoundInNamespaceError``)."""
        return self._walk(path)

    def lookup_file(self, path: str) -> Entry:
        """Entry at *path*, which must be a file."""
        entry = self.lookup(path)
        if entry.is_directory:
            raise IsADirectoryError_(path)
        return entry

    def list_dir(self, path: str) -> List[Tuple[str, Entry]]:
        """(child path, entry) pairs of a directory, sorted by name."""
        entry = self._walk(path)
        if not entry.is_directory:
            raise NotADirectoryError_(path)
        assert entry.children is not None
        base = normalize_path(path)
        prefix = base if base.endswith("/") else base + "/"
        return [
            (prefix + name, child)
            for name, child in sorted(entry.children.items())
        ]

    def count_entries(self) -> Tuple[int, int]:
        """(number of directories, number of files) in the whole tree."""

        def rec(entry: Entry) -> Tuple[int, int]:
            if not entry.is_directory:
                return 0, 1
            dirs, files = 1, 0
            assert entry.children is not None
            for child in entry.children.values():
                d, f = rec(child)
                dirs += d
                files += f
            return dirs, files

        dirs, files = rec(self._root)
        return dirs - 1, files  # don't count the root

    def iter_files(self, path: str = "/") -> Iterator[Tuple[str, Entry]]:
        """Depth-first (path, file entry) pairs under *path*."""
        start = self._walk(path)
        base = normalize_path(path)

        def rec(prefix: str, entry: Entry) -> Iterator[Tuple[str, Entry]]:
            if not entry.is_directory:
                yield prefix, entry
                return
            assert entry.children is not None
            for name, child in sorted(entry.children.items()):
                child_path = prefix.rstrip("/") + "/" + name
                yield from rec(child_path, child)

        yield from rec(base, start)

    # -- mutations -------------------------------------------------------------------

    def mkdirs(self, path: str) -> None:
        """Create a directory and missing ancestors; idempotent."""
        entry = self._root
        for comp in path_components(path):
            assert entry.children is not None
            child = entry.children.get(comp)
            if child is None:
                child = Entry.directory(comp)
                entry.children[comp] = child
                entry.modification_time = time.time()
            elif not child.is_directory:
                raise NotADirectoryError_(
                    f"{path!r}: component {comp!r} is a file"
                )
            entry = child

    def create_file(
        self, path: str, payload: Any, overwrite: bool = False
    ) -> Entry:
        """Create a file entry (parents are created as needed)."""
        self.mkdirs(parent_path(path))
        parent, name = self._walk_parent(path)
        assert parent.children is not None
        existing = parent.children.get(name)
        if existing is not None:
            if existing.is_directory:
                raise IsADirectoryError_(path)
            if not overwrite:
                raise FileAlreadyExistsError(path)
        entry = Entry.file(name, payload)
        parent.children[name] = entry
        parent.modification_time = time.time()
        return entry

    def delete(self, path: str, recursive: bool = False) -> Optional[List[Any]]:
        """Delete a path; returns payloads of every removed file, or
        ``None`` when the path did not exist."""
        try:
            parent, name = self._walk_parent(path)
        except (FileNotFoundInNamespaceError, NotADirectoryError_):
            # nothing at that path (including "under a file")
            return None
        assert parent.children is not None
        entry = parent.children.get(name)
        if entry is None:
            return None
        if entry.is_directory:
            assert entry.children is not None
            if entry.children and not recursive:
                raise DirectoryNotEmptyError(path)
            payloads: List[Any] = [
                e.payload for _p, e in self.iter_files(path)
            ]
        else:
            payloads = [entry.payload]
        del parent.children[name]
        parent.modification_time = time.time()
        return payloads

    def rename(self, src: str, dst: str) -> None:
        """Atomically move *src* to *dst* (exact destination path).

        The destination must not exist; its parent directories are
        created as needed — this is the namenode-side primitive behind
        Hadoop's commit-by-rename.
        """
        src_norm, dst_norm = normalize_path(src), normalize_path(dst)
        if dst_norm == src_norm or dst_norm.startswith(src_norm + "/"):
            raise ValueError(f"cannot rename {src!r} into itself")
        src_parent, src_name = self._walk_parent(src_norm)
        assert src_parent.children is not None
        entry = src_parent.children.get(src_name)
        if entry is None:
            raise FileNotFoundInNamespaceError(src)
        self.mkdirs(parent_path(dst_norm))
        dst_parent, dst_name = self._walk_parent(dst_norm)
        assert dst_parent.children is not None
        if dst_name in dst_parent.children:
            raise FileAlreadyExistsError(dst)
        del src_parent.children[src_name]
        entry.name = dst_name
        entry.modification_time = time.time()
        dst_parent.children[dst_name] = entry
        src_parent.modification_time = time.time()
        dst_parent.modification_time = time.time()


class NamespaceService:
    """A centralized namespace service: the tree, the one lock every call
    takes, and the calls both file systems serve the same way. Files
    readers may not see yet are absent from every query here."""

    def __init__(self) -> None:
        self.tree = NamespaceTree()
        self._lock = threading.Lock()

    @staticmethod
    def _status(path: str, entry: Entry) -> FileStatus:
        if entry.is_directory:
            return FileStatus(
                path=path,
                is_directory=True,
                size=0,
                modification_time=entry.modification_time,
            )
        return entry.payload.status(path, entry.modification_time)

    def _lookup_visible(self, path: str) -> Entry:
        """Entry at *path*, if readers may see it; the caller holds the lock."""
        entry = self.tree.lookup(path)
        if not entry.visible:
            raise FileNotFoundInNamespaceError(
                f"{path} is under construction and not yet visible"
            )
        return entry

    def get_status(self, path: str) -> FileStatus:
        """Status of a file or directory."""
        with self._lock:
            return self._status(normalize_path(path), self._lookup_visible(path))

    def list_dir(self, path: str) -> List[FileStatus]:
        """Visible children of a directory."""
        with self._lock:
            return [
                self._status(child_path, entry)
                for child_path, entry in self.tree.list_dir(path)
                if entry.visible
            ]

    def mkdirs(self, path: str) -> None:
        with self._lock:
            self.tree.mkdirs(path)

    def delete(self, path: str, recursive: bool = False) -> Optional[List[Any]]:
        """Delete; returns removed file payloads (their storage becomes
        garbage), or ``None`` when nothing was there."""
        with self._lock:
            return self.tree.delete(path, recursive=recursive)

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            self.tree.rename(src, dst)

    def exists(self, path: str) -> bool:
        with self._lock:
            return self.tree.exists(path) and self.tree.lookup(path).visible

    def file_count(self) -> int:
        """Number of files in the namespace (the file-count problem metric)."""
        with self._lock:
            return self.tree.count_entries()[1]

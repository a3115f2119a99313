"""The BSFS namespace manager.

"This layer consists in a centralized namespace manager, which is
responsible for maintaining a file system namespace, and for mapping
files to BLOBs." Each file maps to exactly one BLOB; the manager also
tracks the file's byte size, which an appender bumps *after* its BLOB
append completes ("appending the data to the corresponding BLOB, and
updating the size of the file at the level of the namespace manager").

Because concurrent appenders complete out of order, size updates are
monotonic maxima over each append's end offset — a reader therefore
never sees a size that published BLOB versions cannot serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..common.fs import FileStatus
from ..common.namespace import NamespaceService


@dataclass(slots=True)
class BSFSFile:
    """Per-file payload: the BLOB behind the file plus the file size."""

    blob_id: int
    page_size: int
    size: int = 0
    creation_time: float = field(default_factory=time.time)

    #: a BSFS file is readable from its creation on
    visible = True

    def status(self, path: str, mtime: float) -> FileStatus:
        return FileStatus(
            path=path,
            is_directory=False,
            size=self.size,
            block_size=self.page_size,
            modification_time=mtime,
        )


class NamespaceManager(NamespaceService):
    """Centralized file→BLOB mapping and size bookkeeping."""

    def create(
        self, path: str, blob_id: int, page_size: int, overwrite: bool = False
    ) -> BSFSFile:
        """Register *path* as a view of *blob_id* (size starts at 0)."""
        payload = BSFSFile(blob_id=blob_id, page_size=page_size)
        with self._lock:
            self.tree.create_file(path, payload, overwrite=overwrite)
        return payload

    def get(self, path: str) -> BSFSFile:
        """File record at *path* (raises if missing or a directory)."""
        with self._lock:
            return self.tree.lookup_file(path).payload

    def update_size(self, path: str, end_offset: int) -> int:
        """Grow the file size to at least *end_offset*; returns the new size.

        Monotonic max so concurrent appenders may report completion in
        any order.
        """
        with self._lock:
            payload: BSFSFile = self.tree.lookup_file(path).payload
            if end_offset > payload.size:
                payload.size = end_offset
            return payload.size

"""Data providers — the machines that store BLOB pages.

A provider is deliberately dumb: it stores immutable pages by id and
serves byte ranges of them. All placement intelligence lives in the
provider manager; all consistency lives in the version manager. This is
the threaded (real-bytes) runtime; the simulated runtime models the same
role with disk/NIC costs in :mod:`repro.blobseer.simulated`.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..common.errors import PageNotFoundError, ProviderUnavailableError
from .pages import PageId
from .backends import PageStore


class Provider:
    """One page-storage node."""

    def __init__(self, name: str, store: PageStore) -> None:
        self.name = name
        self.store = store
        self._lock = threading.Lock()
        self._failed = False
        #: lifetime counters
        self.bytes_stored = 0
        self.pages_stored = 0

    # -- fault injection -------------------------------------------------------

    def fail(self) -> None:
        """Mark the provider crashed: every subsequent call errors."""
        with self._lock:
            self._failed = True

    def recover(self) -> None:
        """Bring a failed provider back (its stored pages survive)."""
        with self._lock:
            self._failed = False

    def _check_alive(self) -> None:
        if self._failed:
            raise ProviderUnavailableError(f"provider {self.name} is down")

    # -- page I/O ----------------------------------------------------------------

    def put_page(self, page_id: PageId, data: bytes) -> None:
        """Store one immutable page."""
        self._check_alive()
        if not data:
            raise ValueError("empty page")
        self.store.put(page_id.key(), data)
        with self._lock:
            self.bytes_stored += len(data)
            self.pages_stored += 1

    def get_page(
        self, page_id: PageId, offset: int = 0, size: Optional[int] = None
    ) -> bytes:
        """Serve ``[offset, offset+size)`` of a stored page."""
        self._check_alive()
        data = self.store.get(page_id.key())
        if size is None:
            size = len(data) - offset
        if offset < 0 or size < 0 or offset + size > len(data):
            raise PageNotFoundError(
                f"range [{offset}, {offset + size}) outside page of {len(data)} bytes"
            )
        return data[offset : offset + size]

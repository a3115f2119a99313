"""Page-store backends — where a provider persists its pages.

BlobSeer "offers persistence through a BerkeleyDB layer"; this package
puts two interchangeable stores behind the :class:`PageStore` protocol:

* ``memory`` — :class:`~repro.blobseer.backends.memory.InMemoryPageStore`,
  the default for tests and simulations (no durability);
* ``log`` — :class:`~repro.blobseer.backends.logstore.LogStructuredPageStore`,
  an append-only CRC-framed log, replayed on open with its torn tail
  cut off.

Every provider of a deployment selects its store through
``BlobSeerConfig.page_store_backend`` (plus ``page_store_dir`` /
``page_store_fsync`` for the durable one), opened by
:func:`create_store`; tests run both through one shared conformance
suite (``tests/blobseer/test_pagestore_conformance.py``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Protocol

from .logstore import LogStructuredPageStore
from .memory import InMemoryPageStore


class PageStore(Protocol):
    """Key → bytes storage a provider persists its pages in. Pages are
    immutable and never deleted, so a store only puts, gets and closes."""

    def put(self, key: bytes, value: bytes) -> None:
        """Store/overwrite one record."""
        ...

    def get(self, key: bytes) -> bytes:
        """Fetch a record; raises ``PageNotFoundError`` when absent."""
        ...

    def close(self) -> None:
        """Release any underlying resources."""
        ...


def create_store(
    backend: str,
    provider_name: str,
    root: Optional[str | os.PathLike[str]] = None,
    fsync: bool = False,
) -> PageStore:
    """Open one provider's page store: ``memory``, or ``log`` under
    *root* (one ``<provider_name>.log`` file each)."""
    if backend == "memory":
        return InMemoryPageStore()
    if backend != "log":
        raise ValueError(
            f"unknown page-store backend {backend!r} (one of: memory, log)"
        )
    if root is None:
        raise ValueError(
            f"backend {backend!r} is durable and needs page_store_dir"
        )
    return LogStructuredPageStore(
        Path(root) / f"{provider_name}.log", fsync=fsync
    )


__all__ = [
    "PageStore",
    "InMemoryPageStore",
    "LogStructuredPageStore",
    "create_store",
]

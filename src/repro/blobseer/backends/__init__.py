"""Pluggable page-store backends — the provider persistence registry.

BlobSeer "offers persistence through a BerkeleyDB layer"; this package
generalizes that one layer into a registry of interchangeable backends
behind the :class:`PageStore` protocol (the way ucondb layers its
psql/couchbase/blob-server stores behind one storage base class):

* ``memory`` — :class:`~repro.blobseer.backends.memory.InMemoryPageStore`,
  the default for tests and simulations (no durability);
* ``log`` — :class:`~repro.blobseer.backends.logstore.LogStructuredPageStore`,
  an append-only CRC-framed log with tombstones and crash recovery.

Every provider of a deployment selects its backend through
``BlobSeerConfig.page_store_backend`` (plus ``page_store_dir`` /
``page_store_fsync`` for the durable one); tests run every registered
backend through one shared conformance suite
(``tests/blobseer/test_pagestore_conformance.py``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Protocol


class PageStore(Protocol):
    """Key → bytes storage a provider persists its pages in."""

    def put(self, key: bytes, value: bytes) -> None:
        """Store/overwrite one record."""
        ...

    def get(self, key: bytes) -> bytes:
        """Fetch a record; raises ``PageNotFoundError`` when absent."""
        ...

    def contains(self, key: bytes) -> bool:
        """True when the key is stored."""
        ...

    def delete(self, key: bytes) -> None:
        """Remove a record (idempotent)."""
        ...

    def keys(self) -> List[bytes]:
        """Every stored key."""
        ...

    def close(self) -> None:
        """Release any underlying resources."""
        ...


#: backend name -> factory(provider_name, root, fsync) -> PageStore
_REGISTRY: Dict[str, Callable[[str, Optional[Path], bool], PageStore]] = {}

#: backends that need a ``page_store_dir`` to place their files in
_NEEDS_ROOT = {"log"}


def register_backend(
    name: str, factory: Callable[[str, Optional[Path], bool], PageStore]
) -> None:
    """Register a page-store backend under *name*.

    *factory* is called as ``factory(provider_name, root, fsync)`` and
    must return a fresh :class:`PageStore` for that provider. Durable
    backends derive a per-provider path under *root*; memory-class ones
    ignore it.
    """
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


def create_store(
    backend: str,
    provider_name: str,
    root: Optional[str | os.PathLike[str]] = None,
    fsync: bool = False,
) -> PageStore:
    """Instantiate one provider's page store from the registry."""
    try:
        factory = _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown page-store backend {backend!r} "
            f"(registered: {', '.join(available_backends())})"
        ) from None
    if backend in _NEEDS_ROOT and root is None:
        raise ValueError(
            f"backend {backend!r} is durable and needs page_store_dir"
        )
    return factory(provider_name, Path(root) if root is not None else None, fsync)


def store_factory_from_config(config) -> Optional[Callable[[str], PageStore]]:
    """A per-provider ``store_factory`` for a deployment, or ``None``
    when the config selects the default in-memory backend (providers
    then build their own :class:`InMemoryPageStore`)."""
    backend = getattr(config, "page_store_backend", "memory")
    if backend == "memory":
        return None
    root = getattr(config, "page_store_dir", None)
    fsync = bool(getattr(config, "page_store_fsync", False))
    return lambda name: create_store(backend, name, root=root, fsync=fsync)


from .logstore import LogStructuredPageStore  # noqa: E402
from .memory import InMemoryPageStore  # noqa: E402

register_backend("memory", lambda name, root, fsync: InMemoryPageStore())
register_backend(
    "log",
    lambda name, root, fsync: LogStructuredPageStore(
        root / f"{name}.log", fsync=fsync
    ),
)

__all__ = [
    "PageStore",
    "InMemoryPageStore",
    "LogStructuredPageStore",
    "register_backend",
    "available_backends",
    "create_store",
    "store_factory_from_config",
]

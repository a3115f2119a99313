"""The default backend: a thread-safe dict, no durability.

Writers serialise on the store's lock; ``get`` takes none."""

from __future__ import annotations

import threading
from typing import Dict

from ...common.errors import PageNotFoundError


class InMemoryPageStore:
    """Dict-backed store (no durability), thread-safe."""

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: bytes) -> bytes:
        # one dict lookup, atomic on its own: readers take no lock
        try:
            return self._data[key]
        except KeyError:
            raise PageNotFoundError(f"no page {key!r}") from None

    def close(self) -> None:
        pass

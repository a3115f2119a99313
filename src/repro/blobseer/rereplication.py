"""Crash repair — restoring the replication degree after provider loss.

The paper treats replication as a static, per-deployment factor; a
crashed provider silently leaves its pages one copy short. With
``BlobSeerConfig.rereplication`` on, a :class:`ReplicaDirectory` records
where every page landed and a :class:`ReplicaRepairer` scan copies each
page whose live replica count dropped below ``config.replication`` back
up to strength: fetch it from a live holder, store it on a freshly
allocated provider (least-loaded, excluding current holders), record the
new location. The copy runs through engine ops like every other client,
so the DES bills its network/disk time and the threaded runtime moves
real bytes. Counter: ``placement.rereplications`` (copies made).

A scan is a generator the caller schedules — ``rereplicate_once()`` on
the live runtimes, ``env.process(repairer.scan())`` on the DES.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..common.errors import ReplicationError
from ..engine.base import Payload
from ..engine.replica import ReplicaSelector, sweep_fetch
from ..obs import NULL_OBS, Observability


class ReplicaDirectory:
    """Where every page lives: ``page_id -> (providers, nbytes)``.
    Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pages: Dict[Any, Tuple[List[str], int]] = {}

    def note_page(
        self, page_id: Any, providers: Tuple[str, ...], nbytes: int
    ) -> None:
        """Record a freshly stored page and its placement."""
        with self._lock:
            self._pages[page_id] = (list(providers), nbytes)

    def add_replica(self, page_id: Any, provider: str) -> None:
        """Record a repaired copy."""
        with self._lock:
            entry = self._pages.get(page_id)
            if entry is not None and provider not in entry[0]:
                entry[0].append(provider)

    def forget(self, page_ids: Iterable[Any]) -> None:
        """Drop pages whose stored objects were deleted (pruning)."""
        with self._lock:
            for page_id in page_ids:
                self._pages.pop(page_id, None)

    def providers_for(
        self, page_id: Any, known: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        """*known* (the metadata tree's placement) extended with any
        repaired copies the directory knows about."""
        with self._lock:
            entry = self._pages.get(page_id)
            if entry is None:
                return known
            extras = tuple(p for p in entry[0] if p not in known)
        return known + extras if extras else known

    def snapshot(self) -> List[Tuple[Any, Tuple[str, ...], int]]:
        """``(page_id, providers, nbytes)`` per page — one scan's input."""
        with self._lock:
            return [
                (page_id, tuple(providers), nbytes)
                for page_id, (providers, nbytes) in self._pages.items()
            ]


class ReplicaRepairer:
    """The crash-repair scan body, engine-parameterized.

    One :meth:`scan` is a generator of engine ops (run it as a DES
    process or through a threaded engine's trampoline); each invocation
    scans the directory once and performs every indicated copy.
    """

    def __init__(
        self,
        protocol,
        client: str,
        obs: Optional[Observability] = None,
    ) -> None:
        """*protocol* is the deployment's
        :class:`~repro.blobseer.protocol.BlobSeerProtocol` (the scan
        shares its engine, provider manager, directory, and config);
        *client* is the machine the scan's transfers originate from.
        """
        if protocol.directory is None:
            raise ValueError("protocol has no replica directory "
                             "(rereplication knob is off)")
        self.protocol = protocol
        self.client = client
        self._c_rereplications = (obs or NULL_OBS).registry.counter(
            "placement.rereplications"
        )
        self._selector = ReplicaSelector(
            protocol.engine.rng("replica", "rereplicator", client)
        )
        #: lifetime copy count (mirrors the counter, registry or not)
        self.copies = 0

    def scan(self):
        """Generator: one scan — bring every page that lost replicas to
        crashes back to ``config.replication`` live copies."""
        proto = self.protocol
        engine = proto.engine
        directory = proto.directory
        for page_id, providers, nbytes in directory.snapshot():
            live = [p for p in providers if not engine.is_down(p)]
            need = proto.config.replication - len(live)
            if not live or need <= 0:
                continue  # no copy source, or already at strength
            # fetch before allocating: a page no live holder can serve
            # is skipped without charging any provider's load
            try:
                data = yield from sweep_fetch(
                    engine,
                    self._selector,
                    self.client,
                    live,
                    page_id,
                    0,
                    nbytes,
                    f"page {page_id}",
                )
                targets = proto.pm.allocate(
                    [nbytes], replication=need, exclude=providers
                )[0]
            except ReplicationError:
                continue  # unreadable, or not enough spare providers
            payload = (
                Payload(data) if data is not None else Payload(nbytes=nbytes)
            )
            for name in targets:
                yield engine.store(self.client, name, page_id, payload)
                directory.add_replica(page_id, name)
                self._c_rereplications.inc()
                self.copies += 1

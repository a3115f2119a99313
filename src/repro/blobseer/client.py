"""The threaded, in-process BlobSeer runtime — a shim over the protocol core.

The client logic lives in :mod:`repro.blobseer.protocol`; this module
assembles the deployment around the threaded engine: real provider
objects with byte-materialized pages, the lock-based
:class:`~repro.blobseer.version_manager.ThreadedVersionManager` bound as
the ``vm`` control endpoint, and a wall-clock retry policy. Each client
call drives a protocol generator through the engine's synchronous
trampoline in the caller's thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import BlobSeerConfig
from ..engine.base import Payload
from ..engine.threaded import ThreadedEngine
from ..obs import NULL_OBS, Observability
from .backends import store_factory_from_config
from .metadata.dht import MetadataDHT
from .protocol import BlobSeerProtocol, compute_layout
from .provider import Provider
from .provider_manager import ProviderManager
from .version_manager import ThreadedVersionManager


class BlobSeerService:
    """One in-process BlobSeer deployment: VM + PM + metadata DHT + providers."""

    def __init__(
        self,
        config: Optional[BlobSeerConfig] = None,
        n_providers: int = 8,
        seed: int = 0,
        store_factory=None,
        obs: Optional[Observability] = None,
        engine=None,
    ) -> None:
        """*store_factory*, when given, is called with each provider's name
        and must return a :class:`~repro.blobseer.backends.PageStore`
        (used to give providers durable log-structured backends); when
        ``None`` it is derived from the config's ``page_store_backend``
        knobs (see :mod:`repro.blobseer.backends`).

        *engine*, when given, replaces the default
        :class:`~repro.engine.threaded.ThreadedEngine` — any engine with
        the same ``bind``/``bind_data`` wiring surface works; the HTTP
        front-end passes an :class:`~repro.engine.aio.AsyncioEngine`
        here (note its ``run`` is a coroutine, so the synchronous
        :class:`BlobClient` facade only works on the threaded default).
        """
        self.config = config or BlobSeerConfig()
        self.config.validate()
        if n_providers < 1:
            raise ValueError("need at least one provider")
        self.obs = obs or NULL_OBS
        self.seed = seed
        names = [f"provider-{i:03d}" for i in range(n_providers)]
        if store_factory is None:
            store_factory = store_factory_from_config(self.config)
        self.providers: Dict[str, Provider] = {
            name: Provider(name, store_factory(name) if store_factory else None)
            for name in names
        }
        self.version_manager = ThreadedVersionManager(self.obs, config=self.config)
        self.dht = MetadataDHT(self.config.metadata_providers)
        self.provider_manager = ProviderManager(names, seed=seed, obs=self.obs)

        self.engine = engine or ThreadedEngine(seed=seed, obs=self.obs)
        self.engine.bind("vm", self.version_manager)
        for name in names:
            # resolve through the dict at call time: tests (and the
            # durability story) swap provider objects to model restarts
            self.engine.bind_data(
                name,
                lambda pid, data, n=name: self.providers[n].put_page(pid, data),
                lambda pid, off, sz, n=name: self.providers[n].get_page(
                    pid, off, sz
                ),
            )
        self.protocol = BlobSeerProtocol(
            self.engine,
            self.config,
            self.provider_manager,
            self.dht,
            obs=self.obs,
        )
        self._repairer = None

    # -- service operations -------------------------------------------------

    def create_blob(self, page_size: Optional[int] = None) -> int:
        """Create an empty BLOB; returns its id."""
        return self.version_manager.create_blob(page_size or self.config.page_size)

    def client(self, name: str = "client") -> "BlobClient":
        """A client endpoint (one per application thread is conventional,
        but clients are themselves thread-safe)."""
        return BlobClient(self, name)

    def prune_blob(self, blob_id: int, keep_from_version: int):
        """Reclaim the storage of versions older than *keep_from_version*
        (which stays readable, as does everything newer). Returns a
        :class:`~repro.blobseer.pruning.PruneReport`."""
        from .pruning import prune_blob

        return prune_blob(self, blob_id, keep_from_version)

    def fail_provider(self, name: str) -> None:
        """Fault injection: crash a provider and exclude it from placement."""
        self.providers[name].fail()
        self.provider_manager.mark_down(name)
        self.engine.fail_endpoint(name)

    def recover_provider(self, name: str) -> None:
        """Bring a crashed provider back."""
        self.providers[name].recover()
        self.provider_manager.mark_up(name)
        self.engine.recover_endpoint(name)

    def rereplicate_once(self, client: str = "rereplicator") -> int:
        """Run one crash-repair scan (requires the ``rereplication``
        config knob): copy pages that lost replicas to crashes back up
        to ``config.replication``. Returns the number of copies made."""
        if self._repairer is None:
            from .rereplication import ReplicaRepairer

            self._repairer = ReplicaRepairer(
                self.protocol, client, obs=self.obs
            )
        before = self._repairer.copies
        self.engine.run(self._repairer.scan())
        return self._repairer.copies - before

    def close(self) -> None:
        """Release provider persistence backends and stop the version
        manager's lease expiry (idempotent)."""
        self.version_manager.close()
        for provider in self.providers.values():
            provider.store.close()


class BlobClient:
    """Client endpoint of the threaded BlobSeer service."""

    def __init__(self, service: BlobSeerService, name: str) -> None:
        self.service = service
        self.name = name

    @property
    def _dead_providers(self):
        """Providers this client has seen failing (sweep-last memory)."""
        return self.service.protocol.selector(self.name).dead

    def create_blob(self, page_size: Optional[int] = None) -> int:
        """Create an empty BLOB; returns its id."""
        return self.service.create_blob(page_size)

    def append(self, blob_id: int, data: bytes) -> int:
        """Append *data*; returns the version this update generates. The
        offset is chosen by the version manager, as in GFS record append."""
        return self.append_ex(blob_id, data)[0]

    def append_with_offset(self, blob_id: int, data: bytes) -> Tuple[int, int]:
        """Append *data*; returns ``(version, offset)`` — BSFS uses the
        assigned offset to maintain the namespace file size."""
        return self.append_ex(blob_id, data)[:2]

    def append_ex(self, blob_id: int, data: bytes) -> Tuple[int, int, Optional[int]]:
        """Append *data*; returns ``(version, offset, group_end)`` where
        *group_end* is the blob size this client's publish round landed
        (``None`` when a group-commit leader published on its behalf —
        see :meth:`BlobSeerProtocol.update`)."""
        return self.service.engine.run(
            self.service.protocol.update(self.name, blob_id, Payload(data))
        )

    def write(self, blob_id: int, offset: int, data: bytes) -> int:
        """Overwrite ``[offset, offset+len(data))``; returns the new
        version. The offset must be page-aligned and must not create a
        hole; data outside the range is inherited via subtree sharing."""
        return self.service.engine.run(
            self.service.protocol.update(self.name, blob_id, Payload(data), offset)
        )[0]

    def read(
        self,
        blob_id: int,
        offset: int,
        size: int,
        version: Optional[int] = None,
    ) -> bytes:
        """Read ``[offset, offset+size)`` of a published version
        (default: the latest)."""
        _version, data = self.service.engine.run(
            self.service.protocol.read(
                self.name, blob_id, offset, size, version=version
            )
        )
        return data

    def size(self, blob_id: int, version: Optional[int] = None) -> int:
        """Byte size of a published version (default latest)."""
        return self.service.version_manager.resolve(blob_id, version)[0].size

    def latest_version(self, blob_id: int) -> int:
        """Number of the latest published version."""
        return self.service.version_manager.latest_published(blob_id).version

    def get_layout(
        self, blob_id: int, version: Optional[int] = None
    ) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """The data layout of a published version: one
        ``(offset, length, providers)`` entry per stored fragment, in
        offset order — the primitive the paper adds so the Map/Reduce
        scheduler can be made data-location aware."""
        record, page_size = self.service.version_manager.resolve(blob_id, version)
        return compute_layout(self.service.dht, record, page_size)

    def close(self) -> None:
        """Kept for API compatibility; the client holds no resources."""

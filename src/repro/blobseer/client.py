"""The threaded, in-process BlobSeer deployment around the protocol core.

The client logic lives in :mod:`repro.blobseer.protocol`; this module
assembles the deployment around the threaded engine: real provider
objects with byte-materialized pages, the lock-based
:class:`~repro.blobseer.version_manager.ThreadedVersionManager` bound as
the ``vm`` control endpoint, and a wall-clock retry policy. A caller
drives a protocol generator through the engine's synchronous trampoline
in its own thread, e.g. ``svc.engine.run(svc.protocol.update(client,
blob_id, Payload(data)))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import BlobSeerConfig
from ..engine.threaded import ThreadedEngine
from ..obs import NULL_OBS, Observability
from ..obs.events import fault_crash, fault_recover
from .backends import create_store
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
        obs: Optional[Observability] = None,
        engine=None,
    ) -> None:
        """Each provider's page store comes from the config's
        ``page_store_backend`` knobs (see :mod:`repro.blobseer.backends`).

        *engine*, when given, replaces the default
        :class:`~repro.engine.threaded.ThreadedEngine` — any engine with
        the same ``bind``/``bind_providers`` wiring surface works; the HTTP
        front-end passes an :class:`~repro.engine.aio.AsyncioEngine`
        here: the threaded engine with a coroutine ``run`` that its loop
        awaits.
        """
        self.config = config or BlobSeerConfig()
        self.config.validate()
        if n_providers < 1:
            raise ValueError("need at least one provider")
        self.obs = obs or NULL_OBS
        self.seed = seed
        names = [f"provider-{i:03d}" for i in range(n_providers)]
        cfg = self.config
        self.providers: Dict[str, Provider] = {
            name: Provider(
                name,
                create_store(
                    cfg.page_store_backend,
                    name,
                    cfg.page_store_dir,
                    cfg.page_store_fsync,
                ),
            )
            for name in names
        }
        self.version_manager = ThreadedVersionManager(self.obs, config=self.config)
        self.dht = MetadataDHT(self.config.metadata_providers)
        self.provider_manager = ProviderManager(names, seed=seed, obs=self.obs)

        self.engine = engine or ThreadedEngine(seed=seed, obs=self.obs)
        self.engine.bind("vm", self.version_manager)
        # tests (and the durability story) swap provider objects into
        # the dict to model restarts; the engine reads it on every op
        self.engine.bind_providers(self.providers)
        self.protocol = BlobSeerProtocol(
            self.engine,
            self.config,
            self.provider_manager,
            self.dht,
            obs=self.obs,
        )

    # -- service operations -------------------------------------------------

    def create_blob(self, page_size: Optional[int] = None) -> int:
        """Create an empty BLOB; returns its id."""
        return self.version_manager.create_blob(page_size or self.config.page_size)

    def layout(
        self, blob_id: int, version: Optional[int] = None
    ) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """(offset, length, providers) of each stored fragment of a
        published version (default: the latest) — the locality primitive
        the paper adds so the Map/Reduce scheduler can be made
        data-location aware."""
        return compute_layout(
            self.dht, *self.version_manager.resolve(blob_id, version)
        )

    def fail_provider(self, name: str) -> None:
        """Fault injection: crash a provider and exclude it from placement."""
        self.providers[name].fail()
        self.provider_manager.mark_down(name)
        fault_crash(self.obs, "provider", name)

    def recover_provider(self, name: str) -> None:
        """Bring a crashed provider back."""
        self.providers[name].recover()
        self.provider_manager.mark_up(name)
        fault_recover(self.obs, "provider", name)

    def close(self) -> None:
        """Release provider persistence backends and stop the version
        manager's lease expiry (idempotent)."""
        self.version_manager.close()
        for provider in self.providers.values():
            provider.store.close()


"""BlobSeer on the simulated cluster — a shim over the protocol core.

The client logic lives in :mod:`repro.blobseer.protocol`; this module
assembles a deployment around the DES engine: it binds the
version-manager service (:class:`~repro.blobseer.sim_vm.SimVMService`,
the version-manager core on the simulation clock) and the metadata
providers, and holds the crash hooks. Clients drive
``protocol.update`` / ``protocol.read`` in kernel processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common.config import BlobSeerConfig
from ..engine.des import DesEngine
from ..obs import NULL_OBS, Observability
from ..obs.events import fault_crash, fault_recover
from ..sim.cluster import SimCluster
from .metadata.dht import MetadataDHT
from .protocol import BlobSeerProtocol, compute_layout
from .provider_manager import ProviderManager
from .sim_vm import SimVMService


@dataclass(frozen=True, slots=True)
class BlobSeerRoles:
    """Which cluster machines play which BlobSeer role — the paper's
    deployment: one version manager, one provider manager, the metadata
    providers, and the remaining nodes as data providers."""

    version_manager: str
    provider_manager: str
    metadata_providers: Tuple[str, ...]
    data_providers: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.metadata_providers:
            raise ValueError("need at least one metadata provider")
        if not self.data_providers:
            raise ValueError("need at least one data provider")


class SimBlobSeer:
    """A BlobSeer deployment on a simulated cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        roles: BlobSeerRoles,
        config: Optional[BlobSeerConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.roles = roles
        self.config = config or BlobSeerConfig()
        self.config.validate()
        self.obs = obs or NULL_OBS
        self.dht = MetadataDHT(len(roles.metadata_providers))
        self.provider_manager = ProviderManager(
            list(roles.data_providers), seed=cluster.config.seed, obs=self.obs
        )

        self.engine = DesEngine(cluster, obs=self.obs)
        vm = SimVMService(self.env, self.config.append_lease_s, self.obs)
        self.core = vm.core
        self.engine.bind(
            "vm",
            vm,
            cluster.config.version_assign_time,
            # a ready push only files the change map and answers
            # lead/queued — cheaper than the assignment critical section
            method_services={"commit_ready": cluster.config.commit_push_time},
        )
        self.engine.bind_md(len(roles.metadata_providers))
        self.protocol = BlobSeerProtocol(
            self.engine, self.config, self.provider_manager, self.dht, obs=self.obs
        )

    # -- blob lifecycle -------------------------------------------------------

    def create_blob(self, page_size: Optional[int] = None) -> int:
        """Instant (control-plane) blob creation; returns the blob id."""
        return self.core.create_blob(page_size or self.config.page_size)

    # -- fault injection -------------------------------------------------------

    def fail_provider(self, name: str) -> None:
        """Crash a data provider: excluded from placement, reads time
        out; its sole-replica pages are unreadable until recovery."""
        if name not in self.roles.data_providers:
            raise KeyError(f"no data provider {name!r}")
        self.provider_manager.mark_down(name)
        self.engine.fail_endpoint(name)
        fault_crash(self.obs, "provider", name)

    def recover_provider(self, name: str) -> None:
        self.provider_manager.mark_up(name)
        self.engine.recover_endpoint(name)
        fault_recover(self.obs, "provider", name)

    # -- introspection ---------------------------------------------------------

    def layout(
        self, blob_id: int, version: Optional[int] = None
    ) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """(offset, length, providers) of each stored fragment of a
        version — the locality primitive, control-plane only."""
        return compute_layout(self.dht, *self.core.resolve(blob_id, version))

"""Simulated BSFS — a shim over the protocol core on the DES engine.

The file-layer logic lives in :mod:`repro.bsfs.protocol`; this module
wires it to the deployment's DES engine (shared with the underlying
:class:`~repro.blobseer.simulated.SimBlobSeer`), binding the real
:class:`~repro.bsfs.namespace.NamespaceManager` as the ``ns`` control
endpoint — a one-slot charged service, like the version manager — so
microbenchmarks exercise exactly the paper's two-step append.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..blobseer.metadata.segment_tree import build_version, capacity_for
from ..blobseer.pages import Fragment, fresh_page_id
from ..blobseer.simulated import BlobSeerRoles, SimBlobSeer
from ..common.config import BlobSeerConfig
from ..engine.base import Payload
from ..obs import NULL_OBS, Observability
from ..sim.cluster import SimCluster
from ..sim.core import Event
from .namespace import NamespaceManager
from .protocol import BSFSProtocol


@dataclass(frozen=True, slots=True)
class BSFSRoles:
    """BlobSeer roles plus the dedicated namespace-manager machine."""

    blobseer: BlobSeerRoles
    namespace_manager: str


class SimBSFS:
    """A BSFS deployment on a simulated cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        roles: BSFSRoles,
        config: Optional[BlobSeerConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.roles = roles
        #: the machines client processes run on: co-located with the
        #: data providers, as in the paper's deployment
        self.client_nodes: List[str] = list(roles.blobseer.data_providers)
        self.obs = obs or NULL_OBS
        self.blobseer = SimBlobSeer(cluster, roles.blobseer, config, obs=self.obs)
        self.config = self.blobseer.config
        self.namespace = NamespaceManager()
        self.engine = self.blobseer.engine
        self.engine.bind(
            "ns", self.namespace, cluster.config.namespace_rpc_time
        )
        self.protocol = BSFSProtocol(
            self.engine, self.blobseer.protocol, obs=self.obs
        )
        self._payloads: Dict[int, Payload] = {}

    # -- file operations -----------------------------------------------------------

    def create_proc(self, client: str, path: str) -> Generator[Event, None, int]:
        """Create an empty file backed by a fresh BLOB; returns blob id."""
        blob_id = self.blobseer.create_blob()
        yield from self.protocol.create_file(
            client, path, blob_id, self.config.page_size
        )
        return blob_id

    def append_proc(
        self, client: str, path: str, nbytes: int
    ) -> Generator[Event, None, int]:
        """The paper's two-step append (BLOB append + namespace size
        update): the protocol generator itself, whose value is the BLOB
        version generated. Appends of one size share one sized
        :class:`Payload`: a simulated payload is only its byte count, and
        an overloaded open loop holds one per queued op otherwise."""
        payload = self._payloads.get(nbytes)
        if payload is None:
            payload = self._payloads[nbytes] = Payload(nbytes=nbytes)
        return self.protocol.append_file(client, path, payload)

    def read_proc(
        self, client: str, path: str, offset: int, nbytes: int
    ) -> Generator[Event, None, int]:
        """Read a file range; returns the BLOB version served."""
        version, _data = yield from self.protocol.read_file(
            client, path, offset, nbytes
        )
        return version

    # -- experiment plumbing -----------------------------------------------------------

    def preload(self, path: str, nbytes: int) -> None:
        """Instantly materialize a file of *nbytes* (control plane only):
        pages are placed and a version-1 segment tree is built, but no
        simulated time passes — sets up the read-side benchmarks."""
        core = self.blobseer.core
        ps = self.config.page_size
        if not self.namespace.exists(path):
            blob_id = core.create_blob(ps)
            self.namespace.create(path, blob_id, ps)
        record = self.namespace.get(path)
        # refuse before assigning: a version assigned here and never
        # committed would wedge every later append to the blob
        if core.blob(record.blob_id).assigned_size != 0:
            raise ValueError("preload only supports empty files")
        ticket = core.assign_append(record.blob_id, nbytes)
        n_pages = -(-nbytes // ps)
        fills = [min(ps, nbytes - p * ps) for p in range(n_pages)]
        placements = self.blobseer.provider_manager.allocate(
            fills, replication=self.config.replication
        )
        changes = {
            p: (
                Fragment(
                    start=0,
                    length=fills[p],
                    page_id=fresh_page_id(record.blob_id, "preload"),
                    data_offset=0,
                    providers=placements[p],
                ),
            )
            for p in range(n_pages)
        }
        prereq = core.metadata_prereq(record.blob_id, ticket.version)
        assert prereq is not None, "preload requires a quiescent blob"
        prev_root, prev_capacity = prereq
        root = build_version(
            self.blobseer.dht,
            record.blob_id,
            ticket.version,
            prev_root,
            prev_capacity,
            changes,
            capacity_for(n_pages),
        )
        core.commit(record.blob_id, ticket.version, root)
        self.namespace.update_size(path, ticket.new_size)

"""Simulated HDFS — a shim over the protocol core on the DES engine.

The real (threaded) :class:`~repro.hdfs.namenode.NameNode` is reused as
the control plane — bound to the engine as the ``nn`` endpoint, its
calls execute instantly inside simulated processes while each is
*charged* as a serialized RPC at the dedicated namenode machine. The
data plane (chunk transfers, datanode disks) flows through the shared
network/disk models, so HDFS and BSFS contend under identical physics
in head-to-head experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..common.config import HDFSConfig
from ..engine.base import Payload
from ..engine.des import DesEngine
from ..obs import NULL_OBS, Observability
from ..sim.cluster import SimCluster
from ..sim.core import Event
from .namenode import NameNode
from .protocol import HDFSProtocol


@dataclass(frozen=True, slots=True)
class HDFSRoles:
    """Which machines form the HDFS deployment: "the namenode on a
    dedicated machine and the datanodes on the remaining nodes"."""

    namenode: str
    datanodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.datanodes:
            raise ValueError("need at least one datanode")


class SimHDFS:
    """An HDFS deployment on a simulated cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        roles: HDFSRoles,
        config: Optional[HDFSConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.roles = roles
        #: the machines client processes run on: co-located with the
        #: datanodes, as in the paper's deployment
        self.client_nodes: List[str] = list(roles.datanodes)
        self.config = config or HDFSConfig()
        self.config.validate()
        self.obs = obs or NULL_OBS
        self.namenode = NameNode(
            list(roles.datanodes), config=self.config, seed=cluster.config.seed
        )
        self.engine = DesEngine(cluster, obs=self.obs)
        self.engine.bind(
            "nn", self.namenode, cluster.config.namespace_rpc_time
        )
        self.protocol = HDFSProtocol(self.engine, self.config)

    # -- file operations ------------------------------------------------------------

    def write_file_proc(
        self, client: str, path: str, nbytes: int
    ) -> Generator[Event, None, None]:
        """Create + write + close a file of *nbytes* from *client*,
        buffered chunk-by-chunk (64 MB) to randomly placed replicas."""
        yield from self.protocol.write_file(client, path, Payload(nbytes=nbytes))

    def read_proc(
        self, client: str, path: str, offset: int, nbytes: int
    ) -> Generator[Event, None, None]:
        """Read a byte range: one namenode location RPC, then parallel
        chunk fetches (datanode disk/page-cache + network)."""
        yield from self.protocol.read_range(client, path, offset, nbytes)

    # -- experiment plumbing -------------------------------------------------------------

    def preload(self, path: str, nbytes: int, writer: str = "preload") -> None:
        """Instantly materialize a file (control plane only), for setting
        up read-side experiments."""
        self.namenode.create(path, writer)
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.config.chunk_size, remaining)
            remaining -= chunk
            block_id, targets = self.namenode.allocate_block(path, writer)
            self.namenode.commit_block(path, writer, block_id, chunk, targets)
        self.namenode.complete(path, writer)

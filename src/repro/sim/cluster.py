"""Simulated cluster: machines with NICs and disks on a shared fabric.

:class:`SimCluster` materializes a :class:`~repro.common.config.ClusterConfig`
into a network of :class:`~repro.sim.network.NetNode` s and
:class:`~repro.sim.disk.Disk` s, one pair per machine, all driven by one
:class:`~repro.sim.core.Environment`. Experiment deployments
(:mod:`repro.experiments.deploy`) assign roles (version manager, metadata
providers, data providers / namenode, datanodes, clients) to these
machines following the paper's Grid'5000 setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from typing import Optional

from ..common.config import ClusterConfig
from ..common.rng import substream
from ..obs import Observability
from .core import Environment
from .disk import Disk
from .network import Network, NetNode


@dataclass(slots=True)
class SimNode:
    """One simulated machine."""

    name: str
    net: NetNode
    disk: Disk


class SimCluster:
    """All machines of one experiment reservation."""

    def __init__(
        self, config: ClusterConfig, obs: Optional[Observability] = None
    ) -> None:
        config.validate()
        self.config = config
        self.env = Environment()
        self.network = Network(
            self.env,
            latency=config.latency,
            flow_rate_cap=config.flow_rate_cap,
            obs=obs,
        )
        rack_names: List[str] = []
        if config.racks > 0:
            for r in range(config.racks):
                rack_name = f"rack-{r:02d}"
                self.network.add_rack(rack_name, bandwidth=config.rack_bandwidth)
                rack_names.append(rack_name)
        self.nodes: List[SimNode] = []
        self._by_name: Dict[str, SimNode] = {}
        for i in range(config.nodes):
            name = f"node-{i:03d}"
            net = self.network.add_node(
                name,
                bandwidth=config.nic_bandwidth,
                # round-robin rack assignment spreads every role's nodes
                # across racks, like the real reservation would
                rack=rack_names[i % len(rack_names)] if rack_names else None,
            )
            disk = Disk(
                self.env,
                read_bandwidth=config.disk_read_bandwidth,
                write_bandwidth=config.disk_write_bandwidth,
                cache_hit_ratio=config.page_cache_hit_ratio,
                # lazy: building 270 generators up front dominated setup
                rng=partial(substream, config.seed, "disk", i),
            )
            node = SimNode(name, net, disk)
            self.nodes.append(node)
            self._by_name[name] = node

    def node(self, name: str) -> SimNode:
        """Look up a machine by name."""
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.nodes)

    def names(self) -> List[str]:
        """All machine names, in index order."""
        return [n.name for n in self.nodes]

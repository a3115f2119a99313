"""Discrete-event cluster simulator: the stand-in for the Grid'5000
testbed on which the paper's evaluation ran."""

from .core import AllOf, Environment, Event, Process, Timeout
from .resources import Request, Resource
from .network import Network, NetNode
from .disk import Disk
from .cluster import SimCluster, SimNode

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Request",
    "Resource",
    "Network",
    "NetNode",
    "Disk",
    "SimCluster",
    "SimNode",
]

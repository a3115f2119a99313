"""Micro-benchmarks of the core building blocks (real wall-clock):
threaded BlobSeer append/read throughput, segment-tree build/query, and
the max-min fair network allocator. These are classic pytest-benchmark
targets (multiple rounds) tracking the implementation itself rather
than the simulated testbed.
"""

import pytest

from repro.blobseer import BlobSeerService
from repro.blobseer.metadata.dht import MetadataDHT
from repro.blobseer.metadata.segment_tree import (
    build_version,
    capacity_for,
    query_pages,
)
from repro.blobseer.pages import Fragment, fresh_page_id
from repro.common.config import BlobSeerConfig
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.sim.core import Environment
from repro.sim.network import Network


@pytest.mark.benchmark(group="core-blobseer")
def test_threaded_append_throughput(benchmark):
    svc = BlobSeerService(
        BlobSeerConfig(page_size=MiB, metadata_providers=4), n_providers=4
    )
    payload = Payload(b"x" * (4 * MiB))

    def append_4mib():
        blob = svc.create_blob()
        svc.engine.run(svc.protocol.update("bench", blob, payload))

    benchmark(append_4mib)


@pytest.mark.benchmark(group="core-blobseer")
def test_threaded_read_throughput(benchmark):
    svc = BlobSeerService(
        BlobSeerConfig(page_size=MiB, metadata_providers=4), n_providers=4
    )
    blob = svc.create_blob()
    svc.engine.run(svc.protocol.update("bench", blob, Payload(b"y" * (8 * MiB))))

    benchmark(lambda: svc.engine.run(svc.protocol.read("bench", blob, 0, 8 * MiB)))


@pytest.mark.benchmark(group="core-metadata")
def test_segment_tree_append_build(benchmark):
    """Cost of publishing one appended page to a 4096-page blob."""
    store = MetadataDHT(8)
    n = 4096
    changes = {
        i: (
            Fragment(0, 64, fresh_page_id(1, "base"), 0, ("p",)),
        )
        for i in range(n)
    }
    base_root = build_version(store, 1, 1, None, 0, changes, capacity_for(n))
    versions = iter(range(2, 10**6))

    def one_append():
        v = next(versions)
        build_version(
            store,
            1,
            v,
            base_root,
            capacity_for(n),
            {n - 1: (Fragment(0, 64, fresh_page_id(1, "a"), 0, ("p",)),)},
            capacity_for(n),
        )

    benchmark(one_append)


@pytest.mark.benchmark(group="core-metadata")
def test_segment_tree_range_query(benchmark):
    store = MetadataDHT(8)
    n = 4096
    changes = {
        i: (Fragment(0, 64, fresh_page_id(1, "b"), 0, ("p",)),) for i in range(n)
    }
    root = build_version(store, 1, 1, None, 0, changes, capacity_for(n))

    benchmark(lambda: query_pages(store, root, 1000, 1064))


@pytest.mark.benchmark(group="core-network")
def test_maxmin_allocation_200_flows(benchmark):
    """Recomputing fair shares for 200 concurrent flows on a 100-node
    fabric — the sim's hot path during the microbenchmarks."""

    def build_and_allocate():
        env = Environment()
        net = Network(env, flow_rate_cap=50.0)
        for i in range(100):
            net.add_node(f"n{i}", bandwidth=100.0)
        for i in range(200):
            net.transfer(f"n{i % 100}", f"n{(i * 7 + 1) % 100}", 1000.0)
        return net.active_flows

    benchmark(build_and_allocate)

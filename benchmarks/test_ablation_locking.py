"""ABLATION — versioning concurrency control vs lock-the-file appends.

BlobSeer serializes only version assignment (a sub-millisecond critical
section); the data transport of concurrent appends proceeds fully in
parallel. This ablation replaces that with the naive alternative — a
whole-file mutex held for the entire append — and shows the collapse
the versioning design avoids, on the same simulated testbed.
"""

import pytest

from repro.common.config import BlobSeerConfig, ClusterConfig, ExperimentConfig
from repro.common.units import MiB
from repro.experiments.deploy import deploy_bsfs
from repro.sim.resources import Resource

N_CLIENTS = 24
CHUNK = 16 * MiB


def config():
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=60),
        blobseer=BlobSeerConfig(page_size=CHUNK, metadata_providers=4),
        repetitions=1,
    )


def run_appends(locked: bool) -> float:
    """Aggregate append throughput (MiB/s): all clients' bytes over the
    wall-clock makespan — queueing behind the file mutex counts."""
    bsfs = deploy_bsfs(config())
    env = bsfs.env
    env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], "/f")))
    gate = Resource(env, capacity=1)

    def locked_append(client):
        req = yield gate.request()
        try:
            yield env.process(bsfs.append_proc(client, "/f", CHUNK))
        finally:
            gate.release(req)

    start = env.now
    procs = []
    for i in range(N_CLIENTS):
        client = bsfs.client_nodes[i % len(bsfs.client_nodes)]
        if locked:
            procs.append(env.process(locked_append(client)))
        else:
            procs.append(env.process(bsfs.append_proc(client, "/f", CHUNK)))

    def main():
        yield env.all_of(procs)

    env.run(env.process(main()))
    return (N_CLIENTS * CHUNK / (env.now - start)) / MiB


@pytest.mark.benchmark(group="ablation-locking")
def test_versioned_appends(benchmark):
    thr = benchmark.pedantic(lambda: run_appends(locked=False), rounds=1, iterations=1)
    assert thr > 0


@pytest.mark.benchmark(group="ablation-locking")
def test_locked_appends_collapse(benchmark):
    locked = benchmark.pedantic(lambda: run_appends(locked=True), rounds=1, iterations=1)
    versioned = run_appends(locked=False)
    # the mutex serializes the data path: per-client throughput collapses
    # by at least 5x relative to versioning-based concurrency control
    assert versioned > 5 * locked

"""Tests for the simulated BlobSeer runtime: protocol equivalence with
the threaded runtime and sane performance behaviour."""

import pytest

from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.common.errors import OutOfRangeReadError
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.sim.cluster import SimCluster


def make_sim(nodes=20, page=4 * MiB, replication=1, **cluster_kw):
    cluster = SimCluster(ClusterConfig(nodes=nodes, **cluster_kw))
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:5]),
        data_providers=tuple(names[5:]),
    )
    bs = SimBlobSeer(
        cluster,
        roles,
        BlobSeerConfig(page_size=page, metadata_providers=3, replication=replication),
    )
    return cluster, bs


def run(cluster, procs):
    env = cluster.env

    def main():
        results = yield env.all_of(procs)
        return results

    return env.run(env.process(main()))


def append(cluster, bs, client, blob, nbytes):
    """A kernel process: one append; its value is ``(version, offset,
    group_end)``."""
    return cluster.env.process(
        bs.protocol.update(client, blob, Payload(nbytes=nbytes))
    )


def read(cluster, bs, client, blob, offset, nbytes):
    """A kernel process: one read; its value is ``(version, data)``."""
    return cluster.env.process(bs.protocol.read(client, blob, offset, nbytes))


class TestProtocol:
    def test_append_then_read(self):
        cluster, bs = make_sim()
        blob = bs.create_blob()
        clients = list(bs.roles.data_providers)[:2]
        run(cluster, [append(cluster, bs, clients[0], blob, 4 * MiB)])
        rec = bs.core.latest_published(blob)
        assert (rec.version, rec.size) == (1, 4 * MiB)
        [(version, data)] = run(
            cluster, [read(cluster, bs, clients[1], blob, 0, 4 * MiB)]
        )
        assert version == 1 and data is None  # the DES moves no bytes

    def test_concurrent_appends_publish_in_order(self):
        cluster, bs = make_sim()
        blob = bs.create_blob()
        clients = list(bs.roles.data_providers)[:8]
        results = run(cluster, [append(cluster, bs, c, blob, 2 * MiB) for c in clients])
        assert sorted(version for version, _, _ in results) == list(range(1, 9))
        assert bs.core.latest_published(blob).size == 16 * MiB

    def test_unaligned_append_is_metadata_only(self):
        """A sub-page append must not move any old data (no provider
        disk reads, no extra transfers)."""
        cluster, bs = make_sim(page=4 * MiB)
        blob = bs.create_blob()
        c = list(bs.roles.data_providers)[0]
        run(cluster, [append(cluster, bs, c, blob, MiB)])
        reads_before = sum(n.disk.bytes_read for n in cluster.nodes)
        transfers_before = cluster.network.completed_transfers
        run(cluster, [append(cluster, bs, c, blob, MiB)])
        assert sum(n.disk.bytes_read for n in cluster.nodes) == reads_before
        # exactly one new data transfer: the appended bytes themselves
        assert cluster.network.completed_transfers == transfers_before + 1

    def test_read_validates_range(self):
        cluster, bs = make_sim()
        blob = bs.create_blob()
        c = list(bs.roles.data_providers)[0]
        run(cluster, [append(cluster, bs, c, blob, MiB)])
        with pytest.raises(OutOfRangeReadError):
            run(cluster, [read(cluster, bs, c, blob, 0, 2 * MiB)])

    def test_layout_reports_fragments(self):
        cluster, bs = make_sim(page=4 * MiB)
        blob = bs.create_blob()
        c = list(bs.roles.data_providers)[0]
        run(cluster, [append(cluster, bs, c, blob, 3 * MiB)])
        run(cluster, [append(cluster, bs, c, blob, 3 * MiB)])
        layout = bs.layout(blob)
        assert sum(length for _o, length, _p in layout) == 6 * MiB
        offsets = [o for o, _l, _p in layout]
        assert offsets == sorted(offsets)

    def test_replication_ships_to_all_replicas(self):
        cluster, bs = make_sim(replication=3)
        blob = bs.create_blob()
        c = list(bs.roles.data_providers)[0]
        before = cluster.network.completed_transfers
        run(cluster, [append(cluster, bs, c, blob, 4 * MiB)])
        assert cluster.network.completed_transfers == before + 3
        (offset, length, providers) = bs.layout(blob)[0]
        assert len(providers) == 3


class TestPerformanceShape:
    def test_version_manager_not_the_bottleneck(self):
        """Doubling appenders must not double the makespan: page
        transport dominates, the VM critical section is negligible."""
        times = {}
        for n in (4, 8):
            cluster, bs = make_sim(nodes=30)
            blob = bs.create_blob()
            clients = list(bs.roles.data_providers)[:n]
            start = cluster.env.now
            run(cluster, [append(cluster, bs, c, blob, 4 * MiB) for c in clients])
            times[n] = cluster.env.now - start
        assert times[8] < times[4] * 1.6

    def test_readers_do_not_block_appender(self):
        """An appender running alongside readers of an old version must
        not be much slower than alone (versioning isolation)."""
        # alone
        cluster, bs = make_sim(nodes=30, page_cache_hit_ratio=1.0)
        blob = bs.create_blob()
        nodes = list(bs.roles.data_providers)
        start = cluster.env.now
        run(cluster, [append(cluster, bs, nodes[0], blob, 4 * MiB)])
        alone = cluster.env.now - start

        cluster, bs = make_sim(nodes=30, page_cache_hit_ratio=1.0)
        blob = bs.create_blob()
        nodes = list(bs.roles.data_providers)
        run(cluster, [append(cluster, bs, nodes[0], blob, 4 * MiB)])
        took = []

        def timed_append():
            start = cluster.env.now
            yield append(cluster, bs, nodes[5], blob, 4 * MiB)
            took.append(cluster.env.now - start)

        procs = [read(cluster, bs, n, blob, 0, 4 * MiB) for n in nodes[1:5]]
        run(cluster, procs + [cluster.env.process(timed_append())])
        assert took[0] < alone * 2.5

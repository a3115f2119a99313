"""Crash repair: the replica directory and the repair scan."""

import pytest

from repro.blobseer.client import BlobSeerService
from repro.blobseer.rereplication import ReplicaDirectory, ReplicaRepairer
from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.engine.base import Payload
from repro.obs import Observability
from repro.sim.cluster import SimCluster

PAGE = 4096


def _config():
    return BlobSeerConfig(page_size=PAGE, replication=2, rereplication=True)


def _service(obs=None):
    return BlobSeerService(config=_config(), n_providers=6, seed=3, obs=obs)


def _live(svc, page_id):
    return [
        p
        for p in svc.protocol.directory.providers_for(page_id, ())
        if not svc.engine.is_down(p)
    ]


# -- directory ----------------------------------------------------------------


def test_directory_tracks_placement():
    d = ReplicaDirectory()
    d.note_page("pg", ("a", "b"), 100)
    assert d.snapshot() == [("pg", ("a", "b"), 100)]
    d.forget(["pg", "ghost"])  # unknown pages ignored
    assert d.snapshot() == []


def test_directory_extends_known_providers():
    d = ReplicaDirectory()
    d.note_page("pg", ("a", "b"), 100)
    d.add_replica("pg", "c")
    d.add_replica("pg", "c")  # duplicate ignored
    assert d.providers_for("pg", ("a", "b")) == ("a", "b", "c")
    # unknown pages pass through untouched
    assert d.providers_for("ghost", ("x",)) == ("x",)


def test_repairer_requires_directory():
    svc = BlobSeerService(config=BlobSeerConfig(), n_providers=2, seed=0)
    try:
        with pytest.raises(ValueError, match="rereplication"):
            ReplicaRepairer(svc.protocol, "daemon")
    finally:
        svc.close()


# -- crash repair -------------------------------------------------------------


def test_crash_repair_restores_replication():
    obs = Observability.on()
    svc = _service(obs=obs)
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        client.append(blob, b"r" * PAGE)
        directory = svc.protocol.directory
        [page_id] = list(directory._pages)
        victim = directory.providers_for(page_id, ())[0]
        svc.fail_provider(victim)
        assert svc.rereplicate_once() == 1  # back to replication=2 live
        assert len(_live(svc, page_id)) == 2
        assert client.read(blob, 0, PAGE) == b"r" * PAGE
        snap = obs.registry.snapshot()
        assert snap["counters"]["placement.rereplications"] == 1
    finally:
        svc.close()


def test_extra_replica_serves_reads():
    svc = _service()
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        client.append(blob, b"h" * PAGE)
        directory = svc.protocol.directory
        [page_id] = list(directory._pages)
        first, second = directory.providers_for(page_id, ())
        svc.fail_provider(first)
        assert svc.rereplicate_once() == 1
        # crash the other original holder; only the repaired copy (which
        # the metadata tree does not know about) serves
        svc.fail_provider(second)
        assert client.read(blob, 0, PAGE) == b"h" * PAGE
    finally:
        svc.close()


def test_repair_skips_when_no_live_source():
    svc = _service()
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        client.append(blob, b"x" * PAGE)
        directory = svc.protocol.directory
        [page_id] = list(directory._pages)
        for name in directory.providers_for(page_id, ()):
            svc.fail_provider(name)
        assert svc.rereplicate_once() == 0  # nothing the scan can do
    finally:
        svc.close()


def test_scan_idempotent_when_healthy():
    svc = _service()
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        client.append(blob, b"s" * (3 * PAGE))
        assert svc.rereplicate_once() == 0
        assert svc.rereplicate_once() == 0
    finally:
        svc.close()


# -- prune interaction (regression) -------------------------------------------
#
# With 6 providers, replication 2 and equal page sizes, least-loaded
# placement puts three consecutive pages on three disjoint provider
# pairs, so each crash below costs exactly one page one replica.


def test_prune_forgets_deleted_pages():
    """Crash repair used to wedge forever after a prune: the directory
    kept the deleted object, the scan's fetch of it raised
    ``ReplicationError`` out of the whole scan (every later page
    unrepaired) and each attempt leaked an allocation."""
    svc = _service()
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        directory = svc.protocol.directory
        client.append(blob, b"a" * PAGE)
        [pruned] = list(directory._pages)
        pruned_holder = directory.providers_for(pruned, ())[0]
        client.write(blob, 0, b"b" * PAGE)  # v2 supersedes v1's only page
        client.append(blob, b"c" * PAGE)
        last = list(directory._pages)[-1]
        svc.prune_blob(blob, 2)
        assert pruned not in directory._pages
        svc.fail_provider(pruned_holder)
        svc.fail_provider(directory.providers_for(last, ())[0])
        before = svc.provider_manager.load_snapshot()
        assert svc.rereplicate_once() == 1  # the scan returns
        assert len(_live(svc, last)) == 2  # the later page is repaired
        after = svc.provider_manager.load_snapshot()
        assert sum(after.values()) - sum(before.values()) == PAGE
        assert client.read(blob, 0, 2 * PAGE) == b"b" * PAGE + b"c" * PAGE
    finally:
        svc.close()


def test_unreadable_page_is_skipped_without_leaking_load():
    """A page no live holder can serve (its object vanished behind the
    directory's back, e.g. a memory-store provider restarted empty)
    must neither abort the scan nor charge any provider's load."""
    svc = _service()
    try:
        client = svc.client("c0")
        blob = client.create_blob()
        client.append(blob, b"g" * PAGE)
        client.append(blob, b"k" * PAGE)
        directory = svc.protocol.directory
        gone, kept = list(directory._pages)
        for name in directory.providers_for(gone, ()):
            svc.providers[name].store.delete(gone.key())
        svc.fail_provider(directory.providers_for(gone, ())[0])
        svc.fail_provider(directory.providers_for(kept, ())[0])
        before = svc.provider_manager.load_snapshot()
        assert svc.rereplicate_once() == 1  # returns instead of raising
        assert len(_live(svc, kept)) == 2
        assert len(directory.providers_for(gone, ())) == 2  # skipped
        after = svc.provider_manager.load_snapshot()
        # the only load added is the repaired copy of the readable page
        assert sum(after.values()) - sum(before.values()) == PAGE
    finally:
        svc.close()


# -- the DES engine -----------------------------------------------------------


def test_scan_on_des_engine_bills_network_time():
    cluster = SimCluster(ClusterConfig(nodes=12, seed=7))
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:4]),
        data_providers=tuple(names[4:10]),
    )
    obs = Observability.on()
    sb = SimBlobSeer(cluster, roles, _config(), obs=obs)
    env = cluster.env
    blob = sb.create_blob()
    env.run(
        env.process(sb.protocol.update(names[10], blob, Payload(nbytes=3 * PAGE)))
    )
    directory = sb.protocol.directory
    assert len(directory.snapshot()) == 3
    sb.fail_provider(roles.data_providers[0])
    t0 = env.now
    env.run(env.process(sb.repairer.scan()))
    for page_id, providers, _nbytes in directory.snapshot():
        live = [p for p in providers if not sb.engine.is_down(p)]
        assert len(live) == 2, page_id
    assert sb.repairer.copies == 1
    assert obs.registry.value("placement.rereplications") == 1
    assert env.now > t0  # the copy was billed network time

"""Group-commit version publication: core protocol, lease interplay,
and end-to-end behaviour under both runtimes.

The fast path batches ready consecutive appenders into one metadata
publish round (one tree keyed by the batch's last version, shared by
every member — see
:func:`repro.blobseer.metadata.segment_tree.build_versions_batch`).
These tests pin the commit-queue state machine — lead grants, queued
waiters, leader promotion, abort/lease exemptions — and then check that
concurrent appenders produce byte-identical results with the knob on.
"""

import threading

import pytest

from repro.blobseer.client import BlobSeerService
from repro.blobseer.metadata.segment_tree import node_key
from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.blobseer.version_manager import VersionManagerCore
from repro.bsfs.simulated import BSFSRoles, SimBSFS
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.common.errors import AppendAbortedError, VersionNotFoundError
from repro.common.units import MiB
from repro.engine.base import Payload
from repro.obs import Observability
from repro.sim.cluster import SimCluster
from repro.sim.core import Process

PAGE = 4096


def make_core():
    core = VersionManagerCore()
    blob = core.create_blob(PAGE)
    return core, blob


class TestCoreGroupCommit:
    def test_head_submit_drains_consecutive_run(self):
        core, blob = make_core()
        for _ in range(3):
            core.assign_append(blob, 100)
        # later versions go ready first: they queue behind v1
        assert core.submit_ready(blob, 2, "m2") is None
        assert core.submit_ready(blob, 3, "m3") is None
        grant = core.submit_ready(blob, 1, "m1")
        assert grant is not None
        prev_root, prev_capacity, batch = grant
        assert prev_root is None and prev_capacity == 0
        assert [(v, c) for v, c, _ in batch] == [(1, "m1"), (2, "m2"), (3, "m3")]
        # each member carries its own cumulative size for read clipping
        assert [s for _, _, s in batch] == [100, 200, 300]

    def test_run_stops_at_gap(self):
        core, blob = make_core()
        for _ in range(3):
            core.assign_append(blob, 100)
        assert core.submit_ready(blob, 3, "m3") is None  # v2 not ready
        _, _, batch = core.submit_ready(blob, 1, "m1")
        assert [v for v, _, _ in batch] == [1]

    def test_publish_batch_commits_every_member(self):
        core, blob = make_core()
        for _ in range(2):
            core.assign_append(blob, 100)
        core.submit_ready(blob, 2, "m2")
        _, _, batch = core.submit_ready(blob, 1, "m1")
        root = (blob, 2, 0, 1)
        core.publish_batch(blob, [v for v, _, _ in batch], root, 200)
        assert core.latest_published(blob).version == 2
        for v, size in ((1, 100), (2, 200)):
            rec = core.resolve(blob, v)[0]
            assert rec.committed and rec.root == root and rec.size == size

    def test_queued_waiter_notified_on_publish(self):
        core, blob = make_core()
        for _ in range(2):
            core.assign_append(blob, 100)
        outcomes = []
        _, _, batch = core.submit_ready(blob, 1, "m1")
        assert [v for v, _, _ in batch] == [1]  # v2 not ready yet
        # v2 goes ready while v1's batch is in flight: queued
        assert core.submit_ready(blob, 2, "m2") is None
        core.when_published(blob, 2, outcomes.append)
        assert outcomes == []
        core.publish_batch(blob, [1], (blob, 1, 0, 1), 100)
        # v1's publish promotes the queued v2 waiter to leader
        assert len(outcomes) == 1 and outcomes[0][0] == "lead"
        _, _, _, batch2 = outcomes[0]
        assert [v for v, _, _ in batch2] == [2]

    def test_classic_commit_promotes_ready_successor(self):
        """A classic (non-group) commit of v1 must still hand the lead
        to a ready-and-waiting v2 — mixed classic/group traffic."""
        core, blob = make_core()
        core.assign_append(blob, 100)
        core.assign_append(blob, 100)
        outcomes = []
        assert core.submit_ready(blob, 2, "m2") is None
        core.when_published(blob, 2, outcomes.append)
        core.commit(blob, 1, node_key(blob, 1, 0, 1))
        assert len(outcomes) == 1 and outcomes[0][0] == "lead"

    def test_when_published_fires_immediately_when_committed(self):
        core, blob = make_core()
        core.assign_append(blob, 100)
        _, _, batch = core.submit_ready(blob, 1, "m1")
        core.publish_batch(blob, [1], (blob, 1, 0, 1), 100)
        outcomes = []
        core.when_published(blob, 1, outcomes.append)
        assert outcomes == [("published",)]

    def test_submit_validation(self):
        core, blob = make_core()
        with pytest.raises(VersionNotFoundError):
            core.submit_ready(blob, 1, "m")
        core.assign_append(blob, 100)
        core.assign_append(blob, 100)
        assert core.submit_ready(blob, 2, "m2") is None
        with pytest.raises(ValueError):
            core.submit_ready(blob, 2, "again")  # double submit
        core.abort(blob, 1)
        with pytest.raises(AppendAbortedError):
            core.submit_ready(blob, 1, "m1")

    def test_publish_batch_validation(self):
        core, blob = make_core()
        core.assign_append(blob, 100)
        with pytest.raises(ValueError):
            core.publish_batch(blob, [], None, 0)
        with pytest.raises(ValueError):
            # v1 was never drained into a batch
            core.publish_batch(blob, [1], (blob, 1, 0, 1), 100)

    def test_group_metrics(self):
        obs = Observability.on()
        core = VersionManagerCore(obs)
        blob = core.create_blob(PAGE)
        for _ in range(3):
            core.assign_append(blob, 100)
        core.submit_ready(blob, 2, "m2")
        core.submit_ready(blob, 3, "m3")
        _, _, batch = core.submit_ready(blob, 1, "m1")
        core.publish_batch(blob, [1, 2, 3], (blob, 3, 0, 1), 300)
        assert obs.registry.counter("vm.group_commits").value == 1
        assert obs.registry.counter("vm.commits").value == 3
        hist = obs.registry.histogram("vm.group_commit_size")
        assert hist.count == 1 and hist.mean == 3.0


class TestThreadedGroupCommit:
    def _service(self, **kw):
        cfg = BlobSeerConfig(
            page_size=64, group_commit=True, md_cache_nodes=128, **kw
        )
        return BlobSeerService(cfg, n_providers=6)

    def test_concurrent_appenders_bytes_intact(self):
        svc = self._service()
        blob = svc.create_blob()
        n = 12
        results = {}

        def worker(i):
            data = bytes([i + 1]) * 40
            results[i] = (
                *svc.engine.run(svc.protocol.update(f"c{i}", blob, Payload(data))),
                data,
            )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert svc.version_manager.latest_published(blob).size == n * 40
        _v, whole = svc.engine.run(svc.protocol.read("reader", blob, 0, n * 40))
        for _version, offset, _group_end, data in results.values():
            assert whole[offset : offset + len(data)] == data
        # group followers get no size to report; leaders report the
        # batch end — and at least the last publish round has a leader
        ends = [ge for _, _, ge, _ in results.values() if ge is not None]
        assert ends and max(ends) == n * 40

    def test_ready_version_exempt_from_lease(self):
        """Once an appender hands its change map to the VM, publication
        is the leader's job: the append-ticket lease must not abort it
        even if the predecessor publishes slowly."""
        svc = self._service(append_lease_s=0.05)
        blob = svc.create_blob()
        vm = svc.version_manager
        # v1 assigned but unpublished: v2 will queue as ready
        vm.assign_append(blob, 40)
        done = threading.Event()
        out = {}

        def appender():
            out["result"] = svc.engine.run(
                svc.protocol.update("writer", blob, Payload(b"x" * 40))
            )
            done.set()

        t = threading.Thread(target=appender)
        t.start()
        # v2 sits ready behind the stalled v1 well past its own lease;
        # v1's lease aborts it, which promotes v2 to leader
        assert done.wait(timeout=10.0), "ready appender was aborted/stuck"
        t.join()
        version, offset, group_end = out["result"]
        # the aborted v1 leaves its 40-byte hole: v2 lands at offset 40
        # and its publish round reports the cumulative size 80
        assert (version, offset, group_end) == (2, 40, 80)
        assert vm.resolve(blob, 1)[0].aborted
        assert vm.resolve(blob, 2)[0].committed
        _v, data = svc.engine.run(svc.protocol.read("reader", blob, 40, 40))
        assert data == b"x" * 40


def make_sim(group=True, cache=0, nodes=20):
    cluster = SimCluster(ClusterConfig(nodes=nodes))
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:5]),
        data_providers=tuple(names[5:]),
    )
    obs = Observability.on()
    bs = SimBlobSeer(
        cluster,
        roles,
        BlobSeerConfig(
            page_size=4 * MiB,
            metadata_providers=3,
            group_commit=group,
            md_cache_nodes=cache,
        ),
        obs=obs,
    )
    return cluster, bs, obs


def run(cluster, procs):
    env = cluster.env

    def main():
        return (yield env.all_of(procs))

    return env.run(env.process(main()))


def append(cluster, bs, client, blob, nbytes):
    return cluster.env.process(
        bs.protocol.update(client, blob, Payload(nbytes=nbytes))
    )


def read(cluster, bs, client, blob, nbytes, version=None):
    return cluster.env.process(
        bs.protocol.read(client, blob, 0, nbytes, version=version)
    )


class TestSimulatedGroupCommit:
    def test_concurrent_appends_batch_and_stay_readable(self):
        cluster, bs, obs = make_sim(group=True, cache=256)
        blob = bs.create_blob()
        clients = list(bs.roles.data_providers)[:12]
        results = run(cluster, [append(cluster, bs, c, blob, MiB) for c in clients])
        assert sorted(version for version, _, _ in results) == list(range(1, 13))
        assert bs.core.latest_published(blob).size == 12 * MiB
        # batching actually happened: fewer publish rounds than appends
        groups = obs.registry.counter("vm.group_commits").value
        assert 1 <= groups < 12
        assert obs.registry.counter("vm.commits").value == 12
        # every intermediate version still reads its full visible range
        reads = [
            read(cluster, bs, clients[0], blob, v * MiB, version=v)
            for v in range(1, 13)
        ]
        assert [v for v, _ in run(cluster, reads)] == list(range(1, 13))

    def test_group_commit_is_faster_than_serialized(self):
        def makespan(group):
            cluster, bs, _obs = make_sim(group=group)
            blob = bs.create_blob()
            clients = list(bs.roles.data_providers)[:10]
            run(cluster, [append(cluster, bs, c, blob, MiB) for c in clients])
            return cluster.env.now

        assert makespan(group=True) < makespan(group=False)

    def test_node_cache_absorbs_repeat_reads(self):
        cluster, bs, obs = make_sim(group=False, cache=512)
        blob = bs.create_blob()
        client = list(bs.roles.data_providers)[0]
        run(cluster, [append(cluster, bs, client, blob, 8 * MiB)])
        run(cluster, [read(cluster, bs, client, blob, 8 * MiB)])
        md_rpcs_after_first = obs.registry.counter("md.rpcs").value
        run(cluster, [read(cluster, bs, client, blob, 8 * MiB)])
        # the whole second walk is served from the client node cache
        assert obs.registry.counter("md.rpcs").value == md_rpcs_after_first
        assert obs.registry.counter("md.cache.hits").value > 0


def frames_of(process):
    """The generator frames a suspended process holds, outermost first:
    the chain its ``yield from`` delegations keep alive."""
    names, gen = [], process.generator
    while gen is not None:
        names.append(gen.gi_code.co_name)
        gen = gen.gi_yieldfrom
    return names


@pytest.mark.parametrize("group", [True, False], ids=["group-commit", "classic"])
def test_parked_append_holds_only_its_own_frames(group, monkeypatch):
    """An overloaded open loop parks tens of thousands of BSFS appends
    at the update's waits — the ticket, then the publish wait behind a
    group-commit leader or the classic metadata turn — so each frame a
    parked append keeps alive is paid per op at the simulator's peak
    (DESIGN.md §5d rule 5). At every one of them it holds exactly the
    ``append_file`` and ``update`` frames: no sub-generator lives across
    a wait."""
    cluster = SimCluster(ClusterConfig(nodes=20))
    names = cluster.names()
    roles = BSFSRoles(
        blobseer=BlobSeerRoles(
            version_manager=names[0],
            provider_manager=names[1],
            metadata_providers=tuple(names[3:6]),
            data_providers=tuple(names[6:]),
        ),
        namespace_manager=names[2],
    )
    bsfs = SimBSFS(
        cluster,
        roles,
        BlobSeerConfig(page_size=4 * MiB, metadata_providers=3, group_commit=group),
    )
    engine = bsfs.engine
    parked = {}

    def watched(op):
        def issue(parent, endpoint, method, *args):
            ev = op(parent, endpoint, method, *args)
            if method in ("assign_append", "metadata_turn", "publish_wait"):
                # the parked process queues on this list after the
                # yield, so this callback runs while it is still parked
                waiters = ev.callbacks

                def inspect(_ev):
                    (process,) = [cb for cb in waiters if isinstance(cb, Process)]
                    parked.setdefault(method, []).append(frames_of(process))

                waiters.append(inspect)
            return ev

        return issue

    monkeypatch.setattr(engine, "call", watched(engine.call))
    monkeypatch.setattr(engine, "wait", watched(engine.wait))
    env = cluster.env
    env.run(env.process(bsfs.create_proc(names[6], "/shared")))
    clients = list(roles.blobseer.data_providers)[:12]
    run(cluster, [env.process(bsfs.append_proc(c, "/shared", MiB)) for c in clients])
    waits = {"assign_append", "publish_wait" if group else "metadata_turn"}
    assert set(parked) == waits
    for method, chains in parked.items():
        assert chains == [["append_file", "update"]] * len(chains), method
    if group:
        assert len(parked["publish_wait"]) > 1, "no append queued behind a leader"

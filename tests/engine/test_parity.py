"""Engine parity: the protocol cores issue the *same RPC sequence*
under every runtime.

Each scenario drives fresh :class:`BlobSeerProtocol`/:class:`BSFSProtocol`
instances through a :class:`~repro.engine.recording.RecordingEngine`
wrapped around each deployment's real engine, then asserts the
recorded traces — DES, threaded, and served — are identical, element
for element. Provider names are normalized to placement indices
(``p0``..``p7``) since the runtimes name their nodes differently;
client names and every seed are shared, so placement, replica
rotation, and metadata access logs must coincide.
"""

import asyncio

import pytest

from repro.blobseer.client import BlobSeerService
from repro.blobseer.protocol import BlobSeerProtocol, compute_layout
from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.bsfs.client import BSFS
from repro.bsfs.protocol import AppendStreamCore, BSFSProtocol
from repro.bsfs.simulated import BSFSRoles, SimBSFS
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.common.errors import PageNotFoundError, ReplicationError
from repro.engine.aio import AsyncioEngine
from repro.engine.base import Payload
from repro.engine.recording import RecordingEngine
from repro.sim.cluster import SimCluster

PAGE = 4096
SEED = 7
N_PROVIDERS = 8
# the simulated cluster's node names double as the threaded client
# names, so every per-client seeded stream (replica rotation) matches
CLIENTS = ("node-013", "node-014")


def _config(replication=1, lease_s=30.0, group_commit=False, fast=False):
    cfg = BlobSeerConfig(
        page_size=PAGE,
        metadata_providers=3,
        replication=replication,
        append_lease_s=lease_s,
        group_commit=group_commit,
    )
    return cfg.fast() if fast else cfg


class SimHarness:
    """A DES BlobSeer(+BSFS) deployment with a recording protocol stack."""

    name = "des"

    def __init__(
        self, replication=1, lease_s=30.0, bsfs=False, obs=None,
        group_commit=False, fast=False,
    ):
        self.cluster = SimCluster(ClusterConfig(nodes=20, seed=SEED))
        names = self.cluster.names()
        roles = BlobSeerRoles(
            version_manager=names[0],
            provider_manager=names[1],
            metadata_providers=tuple(names[2:5]),
            data_providers=tuple(names[5 : 5 + N_PROVIDERS]),
        )
        cfg = _config(replication, lease_s, group_commit, fast)
        if bsfs:
            dep = SimBSFS(
                self.cluster,
                BSFSRoles(blobseer=roles, namespace_manager=names[15]),
                cfg,
                obs=obs,
            )
            self.sb = dep.blobseer
        else:
            self.sb = SimBlobSeer(self.cluster, roles, cfg, obs=obs)
        self.providers = list(roles.data_providers)
        labels = {n: f"p{i}" for i, n in enumerate(self.providers)}
        self.eng = RecordingEngine(
            self.sb.engine, endpoint_label=lambda n: labels.get(n, n)
        )
        self.proto = BlobSeerProtocol(
            self.eng, cfg, self.sb.provider_manager, self.sb.dht, obs=obs
        )
        self.bsfs = (
            BSFSProtocol(self.eng, self.proto, obs=obs) if bsfs else None
        )
        self.clients = CLIENTS
        self.trace = self.eng.trace

    def create_blob(self):
        return self.sb.create_blob()

    def run(self, gen):
        env = self.cluster.env
        return env.run(env.process(gen))

    def ticket_only(self, blob, nbytes):
        """Take an append ticket and walk away (a doomed appender)."""

        def gen():
            yield self.eng.call(None, "vm", "assign_append", blob, nbytes)

        self.run(gen())

    def fail(self, provider_name):
        self.sb.fail_provider(provider_name)

    def recover(self, provider_name):
        self.sb.recover_provider(provider_name)

    def layout(self, blob):
        rec = self.sb.core.latest_published(blob)
        return compute_layout(self.sb.dht, rec, PAGE)


class ThreadedHarness:
    """The threaded deployment behind the same recording stack."""

    name = "threaded"

    def __init__(
        self, replication=1, lease_s=30.0, bsfs=False, obs=None,
        group_commit=False, fast=False,
    ):
        cfg = _config(replication, lease_s, group_commit, fast)
        if bsfs:
            dep = BSFS(
                config=cfg, n_providers=N_PROVIDERS, seed=SEED, obs=obs
            )
            self.svc = dep.service
        else:
            self.svc = BlobSeerService(
                config=cfg, n_providers=N_PROVIDERS, seed=SEED, obs=obs
            )
        self.providers = [f"provider-{i:03d}" for i in range(N_PROVIDERS)]
        labels = {n: f"p{i}" for i, n in enumerate(self.providers)}
        self.eng = RecordingEngine(
            self.svc.engine, endpoint_label=lambda n: labels.get(n, n)
        )
        self.proto = BlobSeerProtocol(
            self.eng, cfg, self.svc.provider_manager, self.svc.dht, obs=obs
        )
        self.bsfs = (
            BSFSProtocol(self.eng, self.proto, obs=obs) if bsfs else None
        )
        self.clients = CLIENTS
        self.trace = self.eng.trace

    def create_blob(self):
        return self.svc.create_blob()

    def run(self, gen):
        return self.eng.run(gen)

    def ticket_only(self, blob, nbytes):
        def gen():
            yield self.eng.call(None, "vm", "assign_append", blob, nbytes)

        self.run(gen())

    def fail(self, name):
        self.svc.fail_provider(name)

    def recover(self, name):
        self.svc.recover_provider(name)

    def layout(self, blob):
        rec = self.svc.version_manager.latest_published(blob)
        return compute_layout(self.svc.dht, rec, PAGE)


class AsyncioHarness:
    """The served deployment behind the same recording stack: the same
    threaded components, bound to the server's :class:`AsyncioEngine`,
    each protocol run awaited by ``asyncio.run``."""

    name = "asyncio"

    def __init__(
        self, replication=1, lease_s=30.0, bsfs=False, obs=None,
        group_commit=False, fast=False,
    ):
        cfg = _config(replication, lease_s, group_commit, fast)
        engine = AsyncioEngine(seed=SEED, obs=obs)
        self.svc = BlobSeerService(
            config=cfg,
            n_providers=N_PROVIDERS,
            seed=SEED,
            obs=obs,
            engine=engine,
        )
        if bsfs:
            dep = BSFS(service=self.svc, obs=obs)
        self.providers = [f"provider-{i:03d}" for i in range(N_PROVIDERS)]
        labels = {n: f"p{i}" for i, n in enumerate(self.providers)}
        self.eng = RecordingEngine(
            self.svc.engine, endpoint_label=lambda n: labels.get(n, n)
        )
        self.proto = BlobSeerProtocol(
            self.eng, cfg, self.svc.provider_manager, self.svc.dht, obs=obs
        )
        self.bsfs = (
            BSFSProtocol(self.eng, self.proto, obs=obs) if bsfs else None
        )
        self.clients = CLIENTS
        self.trace = self.eng.trace

    def create_blob(self):
        return self.svc.create_blob()

    def run(self, gen):
        return asyncio.run(self.eng.run(gen))

    def ticket_only(self, blob, nbytes):
        def gen():
            yield self.eng.call(None, "vm", "assign_append", blob, nbytes)

        self.run(gen())

    def fail(self, name):
        self.svc.fail_provider(name)

    def recover(self, name):
        self.svc.recover_provider(name)

    def layout(self, blob):
        rec = self.svc.version_manager.latest_published(blob)
        return compute_layout(self.svc.dht, rec, PAGE)


# -- scenarios ---------------------------------------------------------------


def scenario_append_commit(h):
    """Two appends — the second lands unaligned, forcing the boundary
    overlay read — then a full read back."""
    blob = h.create_blob()
    h.run(h.proto.update(h.clients[0], blob, Payload(b"a" * (PAGE + 123))))
    h.run(h.proto.update(h.clients[1], blob, Payload(b"b" * 700)))
    h.run(h.proto.read(h.clients[1], blob, 0, PAGE + 823))


scenario_append_commit.harness_kw = {}


def scenario_lease_abort(h):
    """A doomed appender takes a ticket and dies; the survivor waits out
    the lease, commits over the abort, and the hole reads as missing."""
    blob = h.create_blob()
    h.ticket_only(blob, 700)
    h.run(h.proto.update(h.clients[1], blob, Payload(b"s" * 700)))
    try:
        h.run(h.proto.read(h.clients[1], blob, 0, 700))
    except PageNotFoundError:
        h.trace.append(("hole",))
    h.run(h.proto.read(h.clients[1], blob, 700, 700))


scenario_lease_abort.harness_kw = {"lease_s": 0.05}


def scenario_failover_read(h):
    """Two of a page's three replicas crash; the read sweeps to the
    survivor, learning the dead replicas along the way."""
    blob = h.create_blob()
    h.run(h.proto.update(h.clients[0], blob, Payload(b"x" * 700)))
    _offset, _length, providers = h.layout(blob)[0]
    for name in providers[:2]:
        h.fail(name)
    h.run(h.proto.read(h.clients[1], blob, 0, 700))
    # the same stream reads again: dead replicas are now tried last
    h.run(h.proto.read(h.clients[1], blob, 0, 700))


scenario_failover_read.harness_kw = {"replication": 3}


def scenario_write_behind(h):
    """The BSFS write-behind stream batches small records into block
    appends; the final partial block flushes at the end."""
    blob = h.create_blob()
    h.run(h.bsfs.create_file(h.clients[0], "/f", blob, PAGE))
    stream = AppendStreamCore(h.bsfs, h.clients[0], "/f", blob, PAGE)
    record = b"r" * (PAGE // 2 + 100)
    for _ in range(3):
        h.run(stream.write(record))
    h.run(stream.flush())
    assert stream.appends_issued == 3
    h.run(h.bsfs.read_file(h.clients[1], "/f", 0, 3 * len(record)))


scenario_write_behind.harness_kw = {"bsfs": True}


def scenario_group_commit_append(h):
    """Group commit on, one appender at a time: each append leads its
    own batch — ready push, one metadata round (the second append's
    concatenates the boundary read with the build), one batch publish —
    and the ``commit_ready``/``publish_batch`` ops must record
    identically under both engines."""
    blob = h.create_blob()
    h.run(h.proto.update(h.clients[0], blob, Payload(b"a" * (PAGE + 123))))
    h.run(h.proto.update(h.clients[1], blob, Payload(b"b" * 700)))
    h.run(h.proto.read(h.clients[1], blob, 0, PAGE + 823))
    ops = [rec[2] for rec in h.trace if rec[0] == "call" and rec[1] == "vm"]
    assert ops.count("commit_ready") == 2
    # each publish round is one ("md", owners) charge, right before it
    publish = ("call", "vm", "publish_batch")
    publishes = [i for i, rec in enumerate(h.trace) if rec == publish]
    assert len(publishes) == 2
    assert all(h.trace[i - 1][0] == "md" for i in publishes)
    assert all(h.trace[i - 2][0] != "md" for i in publishes)


scenario_group_commit_append.harness_kw = {"group_commit": True}


def scenario_fast_profile(h):
    """The ``fast`` profile (group commit, node cache, namespace record
    cache): a wrapped engine consults the node cache whatever runtime
    it wraps, so the cache shapes every trace alike — a repeated read
    is served from it and charges no metadata at all."""
    blob = h.create_blob()
    h.run(h.proto.update(h.clients[0], blob, Payload(b"a" * (PAGE + 123))))
    h.run(h.proto.update(h.clients[1], blob, Payload(b"b" * 700)))
    h.run(h.proto.read(h.clients[1], blob, 0, PAGE + 823))
    before = len(h.trace)
    h.run(h.proto.read(h.clients[1], blob, 0, PAGE + 823))
    assert "md" not in {rec[0] for rec in h.trace[before:]}


scenario_fast_profile.harness_kw = {"fast": True}


def scenario_abandon(h):
    """An append that cannot place its replicas gives its ticket back:
    the ``abandon`` op follows the ticket, and the next append takes
    the blob's head at offset 0 without waiting out the lease."""
    blob = h.create_blob()
    for name in h.providers[1:]:
        h.fail(name)
    with pytest.raises(ReplicationError):
        h.run(h.proto.update(h.clients[0], blob, Payload(b"a" * 700)))
    for name in h.providers[1:]:
        h.recover(name)
    version, offset, _ = h.run(
        h.proto.update(h.clients[1], blob, Payload(b"b" * 700))
    )
    assert (version, offset) == (2, 0)
    h.run(h.proto.read(h.clients[1], blob, 0, 700))
    assert ("call", "vm", "abandon") in h.trace


scenario_abandon.harness_kw = {"replication": 2}


def _append_three_pages(h):
    """Append three whole pages, read them back; the append's trace."""
    blob = h.create_blob()
    start = len(h.trace)
    h.run(h.proto.update(h.clients[0], blob, Payload(b"m" * (3 * PAGE))))
    append = h.trace[start:]
    h.run(h.proto.read(h.clients[1], blob, 0, 3 * PAGE))
    return append


def scenario_parallel_ship(h):
    """A 3-page append with replication 2 and no fault: the one write
    path makes all six ``(page, replica)`` stores before it awaits any,
    on every engine."""
    append = _append_three_pages(h)
    assert [rec[0] for rec in append[:8]] == ["call"] + ["store"] * 6 + ["wait"]
    assert len({rec[1] for rec in append[1:7]}) == 6


scenario_parallel_ship.harness_kw = {"replication": 2}


def scenario_ship_reroute(h):
    """The same append, but the provider placed first crashes right
    after placement: all six stores come first, then the store on the
    substitute that the crashed replica's timeout allocated."""
    pm = h.proto.pm
    placed = []

    def allocate_then_crash(sizes, replication=1):
        placements = type(pm).allocate(pm, sizes, replication)
        if not placed:
            placed.append(placements[0][0])
            h.fail(placed[0])
        return placements

    pm.allocate = allocate_then_crash
    append = _append_three_pages(h)
    stores = append[1:8]
    assert [rec[0] for rec in stores] == ["store"] * 7
    assert stores[0] == ("store", f"p{h.providers.index(placed[0])}", PAGE)
    assert stores[6][1] not in {rec[1] for rec in stores[:6]}
    assert append[8][0] == "wait"


scenario_ship_reroute.harness_kw = {"replication": 2}


SCENARIOS = [
    scenario_append_commit,
    scenario_lease_abort,
    scenario_failover_read,
    scenario_write_behind,
    scenario_group_commit_append,
    scenario_fast_profile,
    scenario_abandon,
    scenario_parallel_ship,
    scenario_ship_reroute,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_rpc_trace_identical_under_all_engines(scenario):
    sim = SimHarness(**scenario.harness_kw)
    scenario(sim)
    threaded = ThreadedHarness(**scenario.harness_kw)
    scenario(threaded)
    aio = AsyncioHarness(**scenario.harness_kw)
    scenario(aio)
    assert sim.trace, "scenario recorded nothing"
    assert sim.trace == threaded.trace
    assert sim.trace == aio.trace
    # a real protocol exchange, not a trivial one
    assert len(sim.trace) >= 6
    aio.svc.close()

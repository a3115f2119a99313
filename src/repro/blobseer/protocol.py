"""The BlobSeer client protocol, sans-IO.

Everything a BlobSeer client *does* — request an append/write ticket,
ship pages to their replica placements, wait for its metadata turn,
weave the version's segment subtree and commit it, resolve and fetch a
read — lives here as engine-parameterized generators. The generators
yield :class:`~repro.engine.base.Engine` ops and never touch the clock,
threads, or the simulation kernel, so one implementation serves both the
discrete-event runtime (``repro.blobseer.simulated``) and the threaded
in-process runtime (``repro.blobseer.client``), which are now thin shims
over this module.

The metadata tree algorithms run in-process against a
:class:`~repro.blobseer.metadata.dht.RecordingStore`; the access log is
then charged through ``engine.charge_md`` so the DES runtime bills each
node access as an RPC to its owning metadata provider while the threaded
runtime (whose DHT is genuinely in-process) pays nothing.

Failure handling is shared, not duplicated per runtime: page stores
reroute around :class:`~repro.common.errors.RpcTimeoutError` by
allocating substitute providers, and reads fail over replicas through
:func:`~repro.engine.replica.sweep_fetch` with per-client rotation and
dead-node memory. When ``engine.faults_active`` is ``False`` (the DES
runtime before any injected fault) the ship/fetch stages instead take
the engine's batched fast paths, preserving the simulator's coalesced
network accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.errors import (
    OutOfRangeReadError,
    PageNotFoundError,
    ReplicationError,
    RpcTimeoutError,
)
from ..engine.base import Engine, Payload
from ..engine.replica import ReplicaSelector, sweep_fetch
from ..obs import NULL_OBS, Observability
from .metadata.dht import CachingStore, MetadataDHT, NodeCache, RecordingStore
from .metadata.segment_tree import (
    build_version,
    build_versions_batch,
    iter_all_pages,
    query_pages,
)
from .pages import Fragment, fresh_page_id, overlay
from .provider_manager import ProviderManager
from .version_manager import Ticket, pages_capacity


def compute_layout(dht: MetadataDHT, record, page_size: int):
    """(offset, length, providers) per stored fragment of a version.

    The locality primitive the paper adds so the Map/Reduce scheduler
    can place tasks next to their data. Control-plane only: walks the
    in-process tree without charging transport.
    """
    if record.root is None:
        return []
    out: List[Tuple[int, int, Tuple[str, ...]]] = []
    for index, fragments in iter_all_pages(dht, record.root):
        base = index * page_size
        for frag in fragments:
            visible = min(frag.length, max(0, record.size - base - frag.start))
            if visible > 0:
                out.append((base + frag.start, visible, frag.providers))
    return out


class BlobSeerProtocol:
    """The one client stack, bound to a runtime through its engine.

    Holds the deployment's pure in-process components (provider manager
    for placement, metadata DHT for the tree algorithms) and mediates
    everything effectful — version-manager RPCs, page transport,
    metadata charging, backoff sleeps — through the engine.
    """

    def __init__(
        self,
        engine: Engine,
        config,
        provider_manager: ProviderManager,
        dht: MetadataDHT,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.pm = provider_manager
        self.dht = dht
        self.obs = obs or NULL_OBS
        self._selectors: Dict[str, ReplicaSelector] = {}
        self._h_ticket_wait = self.obs.registry.histogram(
            "vm.append_ticket_wait_s"
        )
        self._h_turn_wait = self.obs.registry.histogram(
            "vm.metadata_turn_wait_s"
        )
        self._c_metadata_rpcs = self.obs.registry.counter("md.rpcs")
        #: bounded LRU of hot (root-reachable) tree nodes; None when the
        #: ``md_cache_nodes`` knob is 0 — every get then reaches the DHT
        if getattr(config, "md_cache_nodes", 0):
            self._node_cache: Optional[NodeCache] = NodeCache(
                config.md_cache_nodes,
                hit_counter=self.obs.registry.counter("md.cache.hits"),
                miss_counter=self.obs.registry.counter("md.cache.misses"),
            )
        else:
            self._node_cache = None
        #: group commit: batch ready consecutive appenders into one
        #: publish round (see :meth:`_publish_batch`)
        self._group_commit = bool(getattr(config, "group_commit", False))
        #: replica directory feeding crash repair; ``None`` (and
        #: zero-overhead) unless the ``rereplication`` knob is on
        if getattr(config, "rereplication", False):
            from .rereplication import ReplicaDirectory

            self.directory: Optional[ReplicaDirectory] = ReplicaDirectory()
        else:
            self.directory = None

    def _node_store(self):
        """``(algorithm store, recording store)`` for one metadata op.

        The algorithm store serves gets from the node cache when one is
        configured — cache hits never reach the recording store, so they
        are never charged as DHT RPCs."""
        rec = RecordingStore(self.dht)
        if self._node_cache is not None:
            return CachingStore(rec, self._node_cache), rec
        return rec, rec

    def selector(self, client: str) -> ReplicaSelector:
        """The client's replica selector (rotation phase + dead memory)."""
        sel = self._selectors.get(client)
        if sel is None:
            sel = self._selectors.setdefault(
                client,
                ReplicaSelector(self.engine.rng("replica", "blobseer", client)),
            )
        return sel

    # -- update path ---------------------------------------------------------

    def update(
        self,
        client: str,
        blob_id: int,
        payload: Payload,
        offset: Optional[int] = None,
        parent=None,
    ):
        """Generator: one update — ticket, ship, metadata turn, commit.

        An append when *offset* is ``None`` (the version manager picks
        the offset, as in GFS record append), else a write at *offset*.
        Returns ``(version, offset, group_end)``. *group_end* is the
        byte size this client's *publish round* advanced the blob to —
        the update's end on the classic one-at-a-time path, the batch's
        final size when this client led a group commit, and ``None``
        when another leader published this version (a size report is
        then the leader's job; see the BSFS namespace update).
        """
        nbytes = len(payload)
        if offset is None:
            kind, args = "append", (blob_id, nbytes)
            # under group commit an append hands its change map to the
            # version manager instead of taking the serialized turn
            publish = self._group_publish if self._group_commit else self._publish
        else:
            kind, args, publish = "write", (blob_id, offset, nbytes), self._publish
        if nbytes <= 0:
            raise ValueError(f"cannot {kind} zero bytes")
        engine = self.engine
        tracer = self.obs.tracer
        sp = tracer.start(
            "blobseer." + kind,
            cat="blobseer",
            parent=parent,
            track=client,
            blob=blob_id,
            nbytes=nbytes,
        )
        sp_vm = tracer.start(
            "vm.assign_" + kind, cat="blobseer.vm", parent=sp, track=client
        )
        t0 = engine.now()
        engine.trace_parent(sp_vm)
        ticket = yield engine.call("vm", "assign_" + kind, *args)
        sp_vm.finish()
        if offset is None:
            self._h_ticket_wait.observe(engine.now() - t0)
        ps = ticket.page_size
        # from here on, the ticket's offset (an append's is the VM's choice)
        offset, end = ticket.offset, ticket.offset + ticket.nbytes
        first, last = offset // ps, (end - 1) // ps
        page_indices = range(first, last + 1)
        sizes = [
            min(end, (p + 1) * ps) - max(offset, p * ps) for p in page_indices
        ]
        placements = self.pm.allocate(
            sizes, replication=self.config.replication
        )

        sp_ship = tracer.start(
            "pages.ship",
            cat="blobseer.data",
            parent=sp,
            track=client,
            pages=len(sizes),
        )
        new_frags: Dict[int, Fragment] = {}
        if engine.faults_active:
            # store page by page, rerouting around crashed providers
            for i, p in enumerate(page_indices):
                lo, hi = max(offset, p * ps), min(end, (p + 1) * ps)
                page_id = fresh_page_id(ticket.blob_id, client)
                stored_on = yield from self._store_page(
                    client,
                    page_id,
                    payload.slice(lo - offset, hi - offset),
                    placements[i],
                    parent=sp_ship,
                )
                new_frags[p] = Fragment(
                    start=lo - p * ps,
                    length=hi - lo,
                    page_id=page_id,
                    data_offset=0,
                    providers=stored_on,
                )
        else:
            # fault-free fast path: one batched fan-out for all replicas
            for i, p in enumerate(page_indices):
                lo, hi = max(offset, p * ps), min(end, (p + 1) * ps)
                new_frags[p] = Fragment(
                    start=lo - p * ps,
                    length=hi - lo,
                    page_id=fresh_page_id(ticket.blob_id, client),
                    data_offset=0,
                    providers=placements[i],
                )
            engine.trace_parent(sp_ship)
            shippers = engine.ship_many(client, placements, sizes)
            if len(shippers) == 1:
                yield shippers[0]
            else:
                engine.trace_parent(sp_ship)
                yield engine.gather(shippers)
        sp_ship.finish()
        if self.directory is not None:
            for frag in new_frags.values():
                self.directory.note_page(
                    frag.page_id, frag.providers, frag.length
                )

        group_end = yield from publish(client, ticket, new_frags, sp)
        sp.finish(version=ticket.version, offset=ticket.offset)
        return ticket.version, ticket.offset, group_end

    def _publish(
        self, client: str, ticket: Ticket, new_frags: Dict[int, Fragment], parent
    ):
        """Generator: the classic metadata turn for one update — wait
        for the predecessor, overlay boundary pages, build and commit
        the version's tree. Returns the update's end offset."""
        engine = self.engine
        tracer = self.obs.tracer
        ps = ticket.page_size
        sp_turn = tracer.start(
            "vm.metadata_turn_wait",
            cat="blobseer.vm",
            parent=parent,
            track=client,
            version=ticket.version,
        )
        turn_t0 = engine.now()
        engine.trace_parent(sp_turn)
        prereq = yield engine.wait(
            "vm", "metadata_turn", ticket.blob_id, ticket.version
        )
        sp_turn.finish()
        self._h_turn_wait.observe(engine.now() - turn_t0)
        assert prereq is not None, "turn granted before predecessor resolved"
        prev_root, prev_capacity = prereq

        # overlay partially-covered boundary pages on the previous
        # version's fragments (reading those leaves costs metadata RPCs)
        changes: Dict[int, tuple] = {}
        boundary_log: list = []
        for p, frag in new_frags.items():
            defined = max(0, min(ticket.new_size, (p + 1) * ps) - p * ps)
            if (frag.start == 0 and frag.end >= defined) or prev_root is None:
                changes[p] = (frag,)
                continue
            store, rec_store = self._node_store()
            prev_frags = query_pages(store, prev_root, p, p + 1).get(p, ())
            boundary_log.extend(rec_store.take_log())
            changes[p] = overlay(prev_frags, frag)
        if boundary_log:
            sp_b = tracer.start(
                "md.boundary_read",
                cat="blobseer.md",
                parent=parent,
                track=client,
                rpcs=len(boundary_log),
            )
            yield from self._charge(boundary_log, parent=sp_b)
            sp_b.finish()

        store, rec_store = self._node_store()
        root = build_version(
            store,
            ticket.blob_id,
            ticket.version,
            prev_root,
            prev_capacity,
            changes,
            pages_capacity(ticket.new_size, ps),
        )
        build_log = rec_store.take_log()
        sp_md = tracer.start(
            "md.build_version",
            cat="blobseer.md",
            parent=parent,
            track=client,
            rpcs=len(build_log),
        )
        yield from self._charge(build_log, parent=sp_md)
        sp_md.finish()

        sp_c = tracer.start(
            "vm.commit", cat="blobseer.vm", parent=parent, track=client
        )
        engine.trace_parent(sp_c)
        yield engine.call("vm", "commit", ticket.blob_id, ticket.version, root)
        sp_c.finish()
        return ticket.offset + ticket.nbytes

    def _group_publish(
        self, client: str, ticket: Ticket, new_frags: Dict[int, Fragment], parent
    ):
        """Generator: the group-commit metadata turn for one append.

        Pushes the ready change map to the version manager (one charged
        RPC at the cheap commit-push cost). The reply either promotes
        this client to leader of a batch of consecutive ready appends —
        it then publishes all of them in one metadata round — or queues
        it behind the current leader, in which case it waits (uncharged)
        until a leader publishes its version, possibly inheriting the
        lead when its predecessor lands first.

        Returns the batch's final blob size when this client led, or
        ``None`` when another leader published its version.
        """
        engine = self.engine
        tracer = self.obs.tracer
        turn_t0 = engine.now()
        sp_r = tracer.start(
            "vm.commit_ready",
            cat="blobseer.vm",
            parent=parent,
            track=client,
            version=ticket.version,
        )
        engine.trace_parent(sp_r)
        reply = yield engine.call(
            "vm", "commit_ready", ticket.blob_id, ticket.version, new_frags
        )
        sp_r.finish(role=reply[0])
        if reply[0] == "queued":
            sp_w = tracer.start(
                "vm.publish_wait",
                cat="blobseer.vm",
                parent=parent,
                track=client,
                version=ticket.version,
            )
            engine.trace_parent(sp_w)
            reply = yield engine.wait(
                "vm", "publish_wait", ticket.blob_id, ticket.version
            )
            sp_w.finish(role=reply[0])
        self._h_turn_wait.observe(engine.now() - turn_t0)
        if reply[0] == "published":
            return None
        assert reply[0] == "lead", f"unexpected publish reply {reply!r}"
        _, prev_root, prev_capacity, batch = reply
        group_end = yield from self._publish_batch(
            client,
            ticket.blob_id,
            prev_root,
            prev_capacity,
            batch,
            ticket.page_size,
            parent,
        )
        return group_end

    def _publish_batch(
        self,
        client: str,
        blob_id: int,
        prev_root,
        prev_capacity: int,
        batch,
        page_size: int,
        parent,
    ):
        """Generator: publish a batch of ready appends as the leader.

        *batch* is ``[(version, raw_change_map, new_size), ...]`` in
        version order. The members' maps are raw single-fragment pages
        on purpose: a member's partially-covered boundary page may owe
        its missing bytes to the *previous batch member*, so the merge
        (:func:`build_versions_batch`) folds them in commit order. Only
        the very first page of the very first member can inherit bytes
        from the previously *published* tree, so a group publish does at
        most one boundary read regardless of batch size.

        Returns the batch's final blob size.
        """
        tracer = self.obs.tracer
        engine = self.engine
        versions = [v for v, _, _ in batch]
        member_maps: List[Dict[int, tuple]] = [
            {p: (frag,) for p, frag in frags.items()} for _, frags, _ in batch
        ]
        # one publish round: the boundary read and the batch build are
        # charged as one concatenated log, one fan-out wave
        log: List[int] = []
        first_map = member_maps[0]
        p0 = min(first_map)
        frag0 = first_map[p0][0]
        if frag0.start > 0 and prev_root is not None:
            store, rec_store = self._node_store()
            prev_frags = query_pages(store, prev_root, p0, p0 + 1).get(p0, ())
            log = rec_store.take_log()
            first_map[p0] = overlay(prev_frags, frag0)
        last_size = batch[-1][2]
        store, rec_store = self._node_store()
        root = build_versions_batch(
            store,
            blob_id,
            list(zip(versions, member_maps)),
            prev_root,
            prev_capacity,
            pages_capacity(last_size, page_size),
        )
        log += rec_store.take_log()
        sp_md = tracer.start(
            "md.publish_batch",
            cat="blobseer.md",
            parent=parent,
            track=client,
            rpcs=len(log),
            members=len(batch),
        )
        yield from self._charge(log, parent=sp_md)
        sp_md.finish()

        sp_c = tracer.start(
            "vm.publish_batch",
            cat="blobseer.vm",
            parent=parent,
            track=client,
            members=len(batch),
        )
        engine.trace_parent(sp_c)
        yield engine.call(
            "vm", "publish_batch", blob_id, versions, root, last_size
        )
        sp_c.finish()
        return last_size

    def _store_page(
        self, client: str, page_id, payload: Payload, providers, parent=None
    ):
        """Generator: store one page on its placement, rerouting around
        timeouts by allocating substitute providers. Returns the tuple
        of providers that actually hold the page."""
        engine = self.engine
        remaining = list(providers)
        stored: List[str] = []
        attempts = 0
        while remaining:
            name = remaining.pop(0)
            try:
                engine.trace_parent(parent)
                yield engine.store(client, name, page_id, payload)
            except RpcTimeoutError:
                self.pm.mark_down(name)
                attempts += 1
                if attempts > 3 + len(providers):
                    break
                try:
                    substitute = self.pm.allocate(
                        [len(payload)], replication=1
                    )[0][0]
                except ReplicationError:
                    break
                if (
                    substitute != name
                    and substitute not in remaining
                    and substitute not in stored
                ):
                    remaining.append(substitute)
            else:
                stored.append(name)
        if not stored:
            raise ReplicationError(
                f"page {page_id} could not be stored on any provider"
            )
        return tuple(stored)

    def _charge(self, log, parent=None):
        """Generator: bill a metadata access log as RPCs to its owners."""
        if not log:
            return
        self._c_metadata_rpcs.inc(len(log))
        self.engine.trace_parent(parent)
        yield self.engine.charge_md(log)

    # -- read path -----------------------------------------------------------

    def read(
        self,
        client: str,
        blob_id: int,
        offset: int,
        nbytes: int,
        version: Optional[int] = None,
        parent=None,
    ):
        """Generator: read ``[offset, offset+nbytes)`` of a version.

        Returns ``(version, data)`` — *data* is the bytes on engines
        that materialize payloads and ``None`` under pure simulation.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("read range must be non-negative")
        engine = self.engine
        sp = self.obs.tracer.start(
            "blobseer.read",
            cat="blobseer",
            parent=parent,
            track=client,
            blob=blob_id,
            offset=offset,
            nbytes=nbytes,
        )
        sp_vm = self.obs.tracer.start(
            "vm.resolve", cat="blobseer.vm", parent=sp, track=client
        )
        engine.trace_parent(sp_vm)
        rec, ps = yield engine.call("vm", "resolve", blob_id, version)
        sp_vm.finish()
        if nbytes == 0:
            if offset > rec.size:
                raise OutOfRangeReadError(
                    f"blob {blob_id} v{rec.version}: offset {offset} past "
                    f"size {rec.size}"
                )
            sp.finish(version=rec.version)
            return rec.version, b""
        if offset + nbytes > rec.size:
            raise OutOfRangeReadError(
                f"blob {blob_id} v{rec.version}: read [{offset}, "
                f"{offset + nbytes}) past size {rec.size}"
            )
        if rec.root is None:
            raise PageNotFoundError(
                f"blob {blob_id} v{rec.version}: range is an aborted hole"
            )

        first, last = offset // ps, (offset + nbytes - 1) // ps
        store, rec_store = self._node_store()
        leaves = query_pages(store, rec.root, first, last + 1)
        query_log = rec_store.take_log()
        sp_md = self.obs.tracer.start(
            "md.query_pages",
            cat="blobseer.md",
            parent=sp,
            track=client,
            rpcs=len(query_log),
        )
        yield from self._charge(query_log, parent=sp_md)
        sp_md.finish()

        # walk each page's fragments with a cursor so holes *inside* a
        # leaf (from an aborted writer whose neighbour committed) fail
        # loudly instead of returning zeros
        jobs: List[Tuple[int, Fragment]] = []
        for p in range(first, last + 1):
            if p not in leaves:
                raise PageNotFoundError(
                    f"blob {blob_id} v{rec.version}: page {p} is a hole"
                )
            base = p * ps
            lo = max(offset, base) - base
            hi = min(offset + nbytes, base + ps) - base
            cursor = lo
            for frag in leaves[p]:
                piece = frag.clip(cursor, hi)
                if piece is None:
                    continue
                if piece.start > cursor:
                    raise PageNotFoundError(
                        f"blob {blob_id} v{rec.version}: hole in page {p} "
                        f"at [{cursor}, {piece.start})"
                    )
                jobs.append((base + piece.start - offset, piece))
                cursor = piece.end
                if cursor >= hi:
                    break
            if cursor < hi:
                raise PageNotFoundError(
                    f"blob {blob_id} v{rec.version}: page {p} ends at "
                    f"{cursor}, need {hi}"
                )

        sp_fetch = self.obs.tracer.start(
            "pages.fetch", cat="blobseer.data", parent=sp, track=client
        )
        buf: Optional[bytearray] = None
        if engine.faults_active:
            sel = self.selector(client)
            directory = self.directory
            for out_pos, piece in jobs:
                providers = piece.providers
                if directory is not None:
                    # repaired copies are readable too
                    providers = directory.providers_for(
                        piece.page_id, providers
                    )
                data = yield from sweep_fetch(
                    engine,
                    sel,
                    client,
                    providers,
                    piece.page_id,
                    piece.data_offset,
                    piece.length,
                    f"page {piece.page_id}",
                    parent=sp_fetch,
                )
                if data is not None:
                    if buf is None:
                        buf = bytearray(nbytes)
                    buf[out_pos : out_pos + piece.length] = data
        else:
            fetchers = []
            for _, piece in jobs:
                engine.trace_parent(sp_fetch)
                fetchers.append(
                    engine.fetch(
                        client,
                        piece.providers[0],
                        piece.page_id,
                        piece.data_offset,
                        piece.length,
                    )
                )
            engine.trace_parent(sp_fetch)
            yield engine.gather(fetchers)
        sp_fetch.finish(fragments=len(jobs))
        sp.finish(version=rec.version)
        return rec.version, (bytes(buf) if buf is not None else None)

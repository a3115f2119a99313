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

The metadata tree algorithms run in-process against one
:class:`~repro.blobseer.metadata.dht.RecordingStore` session per
metadata operation; its log of node keys is then charged through
``engine.charge_md``. The DES runtime maps each key to its owning
metadata provider and bills the access as an RPC there; the live
runtimes (whose DHT is genuinely in-process) pay nothing, compute no
placement and, with tracing off, get no op to yield.

Failure handling is shared, not duplicated per runtime, and there is
one path on every engine: an update makes the store op of every
``(page, replica)`` first, then awaits them page by page, rerouting a
:class:`~repro.common.errors.RpcTimeoutError` to a substitute
provider; a read fetches its pieces in order, each failing over
replicas through :func:`~repro.engine.replica.sweep_fetch` with
per-client rotation and dead-node memory. A DES op starts when it is
made, so the page ship still runs in parallel there.
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


def report_holes(gaps, holes: List[Tuple[int, int]], lo: int, hi: int) -> None:
    """Add each ``(start, end)`` extent of *gaps*, clipped to ``[lo,
    hi)``, to *holes*, merged with the extent before it where they
    meet."""
    for start, end in gaps:
        start, end = max(start, lo), min(end, hi)
        if start >= end:
            continue
        if holes and holes[-1][1] == start:
            holes[-1] = (holes[-1][0], end)
        else:
            holes.append((start, end))


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
        #: ``md_cache_nodes`` knob is 0 or the engine bills no metadata
        #: RPCs (a live get is one dict lookup, cheaper than the cache's
        #: own bookkeeping) — every get then reaches the DHT
        if getattr(config, "md_cache_nodes", 0) and engine.bills_metadata:
            self._node_cache: Optional[NodeCache] = NodeCache(
                config.md_cache_nodes,
                hit_counter=self.obs.registry.counter("md.cache.hits"),
                miss_counter=self.obs.registry.counter("md.cache.misses"),
            )
        else:
            self._node_cache = None
        #: group commit: batch ready consecutive appenders into one
        #: publish round (see :meth:`update`)
        self._group_commit = bool(getattr(config, "group_commit", False))

    def _node_store(self):
        """``(algorithm store, session)`` for one metadata op.

        The algorithm store serves gets from the node cache when there
        is one — cache hits never reach the session, so they are never
        charged as DHT RPCs."""
        session = RecordingStore(self.dht)
        if self._node_cache is not None:
            return CachingStore(session, self._node_cache), session
        return session, session

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
        nbytes = payload.nbytes
        append = offset is None
        if nbytes <= 0:
            raise ValueError(f"cannot {'append' if append else 'write'} zero bytes")
        engine = self.engine
        sp = self.obs.tracer.start(
            "blobseer.append" if append else "blobseer.write",
            cat="blobseer",
            parent=parent,
            track=client,
            blob=blob_id,
            nbytes=nbytes,
        )
        # an overloaded open loop parks tens of thousands of updates on
        # this generator's waits — the ticket, the metadata turn, the
        # publish wait — so each is yielded here, with no sub-generator
        # frame alive across it, and each local held across one is
        # paid per op; the ticket request names its method and
        # arguments inline for the same reason
        if append:
            t0 = engine.now()
            ticket = yield engine.call(sp, "vm", "assign_append", blob_id, nbytes)
            self._h_ticket_wait.observe(engine.now() - t0)
        else:
            ticket = yield engine.call(
                sp, "vm", "assign_write", blob_id, offset, nbytes
            )
        try:
            new_frags = yield from self._ship(client, ticket, payload, sp)
            t0 = engine.now()
            if append and self._group_commit:
                # group commit: hand the change map to the version
                # manager instead of taking the serialized turn (one
                # charged RPC at the cheap commit-push cost). The reply
                # makes this client the leader of a batch of consecutive
                # ready appends, or queues it (uncharged) until a leader
                # publishes its version — or promotes it to leader when
                # its predecessor lands first
                reply = yield engine.call(
                    sp, "vm", "commit_ready", ticket.blob_id, ticket.version, new_frags
                )
                if reply[0] == "queued":
                    reply = yield engine.wait(
                        sp, "vm", "publish_wait", ticket.blob_id, ticket.version
                    )
                self._h_turn_wait.observe(engine.now() - t0)
                if reply[0] == "published":
                    # another leader published this version and owns
                    # the size report
                    group_end = None
                else:
                    assert reply[0] == "lead", f"unexpected publish reply {reply!r}"
                    group_end = yield from self._publish_batch(
                        ticket.blob_id, reply, ticket.page_size, sp
                    )
            else:
                prereq = yield engine.wait(
                    sp, "vm", "metadata_turn", ticket.blob_id, ticket.version
                )
                self._h_turn_wait.observe(engine.now() - t0)
                group_end = yield from self._publish(ticket, new_frags, prereq, sp)
        except Exception as exc:
            # give the ticket back now: the version becomes a hole at
            # once instead of wedging every later update for a lease.
            # Not BaseException — a client that dies holding its ticket
            # (GeneratorExit) is what the lease is for.
            yield engine.call(sp, "vm", "abandon", ticket.blob_id, ticket.version)
            sp.finish(error=type(exc).__name__)
            raise
        sp.finish(version=ticket.version, offset=ticket.offset)
        return ticket.version, ticket.offset, group_end

    def _ship(self, client: str, ticket: Ticket, payload: Payload, parent):
        """Generator: place and store the ticket's pages; returns the
        new fragment of each page the update touches."""
        engine = self.engine
        tracer = self.obs.tracer
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
            parent=parent,
            track=client,
            pages=len(sizes),
        )
        # every (page, replica) store is made before any is awaited. A
        # DES op starts when it is made, so all the transfers start in
        # this instant and share one reallocation; a threaded op runs
        # when it is yielded, so the pages are stored in order. Should
        # an exception other than a timeout end the awaits partway, the
        # DES still runs the stores already made (their pages land as
        # orphans, like an aborted update's), the threaded engine none
        pages = []
        for p, providers in zip(page_indices, placements):
            lo, hi = max(offset, p * ps), min(end, (p + 1) * ps)
            page_id = fresh_page_id(ticket.blob_id, client)
            piece = payload.slice(lo - offset, hi - offset)
            ops = [
                engine.store(sp_ship, client, name, page_id, piece)
                for name in providers
            ]
            pages.append((p, lo, hi, page_id, piece, providers, ops))
        new_frags: Dict[int, Fragment] = {}
        for p, lo, hi, page_id, piece, providers, ops in pages:
            stored_on = yield from self._store_page(
                client, page_id, piece, providers, ops, sp_ship
            )
            new_frags[p] = Fragment(
                start=lo - p * ps,
                length=hi - lo,
                page_id=page_id,
                data_offset=0,
                providers=stored_on,
            )
        sp_ship.finish()
        return new_frags

    def _publish(
        self, ticket: Ticket, new_frags: Dict[int, Fragment], prereq, parent
    ):
        """Generator: the classic metadata turn for one update, once it
        is granted — overlay boundary pages on the predecessor's tree
        (*prereq* is its ``(root, capacity)``), build and commit the
        version's tree. Returns the update's end offset."""
        assert prereq is not None, "turn granted before predecessor resolved"
        prev_root, prev_capacity = prereq
        ps = ticket.page_size

        # overlay partially-covered boundary pages on the previous
        # version's fragments (reading those leaves costs metadata RPCs)
        store, session = self._node_store()
        changes: Dict[int, tuple] = {}
        for p, frag in new_frags.items():
            defined = max(0, min(ticket.new_size, (p + 1) * ps) - p * ps)
            if (frag.start == 0 and frag.end >= defined) or prev_root is None:
                changes[p] = (frag,)
                continue
            prev_frags = query_pages(store, prev_root, p, p + 1).get(p, ())
            changes[p] = overlay(prev_frags, frag)
        yield from self._charge(session.take_log(), parent)

        root = build_version(
            store,
            ticket.blob_id,
            ticket.version,
            prev_root,
            prev_capacity,
            changes,
            pages_capacity(ticket.new_size, ps),
        )
        yield from self._charge(session.take_log(), parent)

        yield self.engine.call(
            parent, "vm", "commit", ticket.blob_id, ticket.version, root
        )
        return ticket.offset + ticket.nbytes

    def _publish_batch(self, blob_id: int, grant: tuple, page_size: int, parent):
        """Generator: publish a batch of ready appends as the leader.

        *grant* is the version manager's ``("lead", prev_root,
        prev_capacity, batch)``, *batch* ``[(version, changes,
        new_size), ...]`` in version order, each *changes* the member's
        raw map of page to its one new :class:`Fragment`. A member's
        partially-covered boundary page may owe its missing bytes to the
        *previous batch member*, so :func:`build_versions_batch` folds
        the maps in commit order. Only the very first page of the very
        first member can inherit bytes from the previously *published*
        tree, so a group publish does at most one boundary read
        regardless of batch size; its fragments seed the fold.

        Returns the batch's final blob size.
        """
        _, prev_root, prev_capacity, batch = grant
        # one publish round: the boundary read and the batch build are
        # charged as one concatenated log, one fan-out wave
        store, session = self._node_store()
        published = None
        first = batch[0][1]
        p0 = min(first)
        if first[p0].start > 0 and prev_root is not None:
            published = query_pages(store, prev_root, p0, p0 + 1)
        last_size = batch[-1][2]
        versions = [v for v, _, _ in batch]
        root = build_versions_batch(
            store,
            blob_id,
            [(v, changes) for v, changes, _ in batch],
            prev_root,
            prev_capacity,
            pages_capacity(last_size, page_size),
            published,
        )
        yield from self._charge(session.take_log(), parent)

        yield self.engine.call(
            parent, "vm", "publish_batch", blob_id, versions, root, last_size
        )
        return last_size

    def _store_page(
        self, client: str, page_id, payload: Payload, providers, ops, parent
    ):
        """Generator: await (and consume) one page's list of store
        *ops*, made on *providers* in order, rerouting each timeout to a
        substitute provider; a substitute's store is made when its turn
        comes, behind the page's own replicas. Returns the tuple of
        providers that actually hold the page."""
        engine = self.engine
        remaining = list(providers)
        stored: List[str] = []
        attempts = 0
        while remaining:
            name = remaining.pop(0)
            try:
                yield (
                    ops.pop(0)
                    if ops
                    else engine.store(parent, client, name, page_id, payload)
                )
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

    def _charge(self, log, parent):
        """Generator: bill a metadata access log (node keys) as RPCs to
        their owners, the op span under *parent*. Yields nothing for an
        empty log, or on an engine with nothing to bill or record."""
        if not log:
            return
        self._c_metadata_rpcs.inc(len(log))
        op = self.engine.charge_md(parent, log)
        if op is not None:
            yield op

    # -- read path -----------------------------------------------------------

    def read(
        self,
        client: str,
        blob_id: int,
        offset: int,
        nbytes: int,
        version: Optional[int] = None,
        parent=None,
        holes: Optional[List[Tuple[int, int]]] = None,
    ):
        """Generator: read ``[offset, offset+nbytes)`` of a version.

        Returns ``(version, data)`` — *data* is the bytes on engines
        that materialize payloads and ``None`` under pure simulation.

        A byte range no committed version wrote — a *hole*, left by an
        aborted update whose successors committed — raises
        ``PageNotFoundError``, unless *holes* is a list: the read then
        appends each hole's ``(start, end)`` blob offsets to it, merged
        and in order, and returns zeros across them. Readers that skip
        holes, as record-append readers skip padding, ask for that.
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
        rec, ps = yield engine.call(sp, "vm", "resolve", blob_id, version)
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
        first, last = offset // ps, (offset + nbytes - 1) // ps
        leaves = {}
        if rec.root is not None:  # None: the version itself was aborted
            store, session = self._node_store()
            leaves = query_pages(store, rec.root, first, last + 1)
            yield from self._charge(session.take_log(), sp)

        # walk each page's fragments with a cursor so holes — a missing
        # page, or a gap *inside* a leaf from an aborted writer whose
        # neighbour committed — are found instead of read as zeros
        jobs: List[Tuple[int, Fragment]] = []
        gaps: List[Tuple[int, int]] = []  # in blob offsets, one page each
        for p in range(first, last + 1):
            base = p * ps
            lo = max(offset, base) - base
            hi = min(offset + nbytes, base + ps) - base
            cursor = lo
            for frag in leaves.get(p, ()):
                piece = frag.clip(cursor, hi)
                if piece is None:
                    continue
                if piece.start > cursor:
                    gaps.append((base + cursor, base + piece.start))
                jobs.append((base + piece.start - offset, piece))
                cursor = piece.end
                if cursor >= hi:
                    break
            if cursor < hi:
                gaps.append((base + cursor, base + hi))
        if holes is not None:
            report_holes(gaps, holes, offset, offset + nbytes)
        elif gaps:
            start, end = gaps[0]
            base = start // ps * ps
            raise PageNotFoundError(
                f"blob {blob_id} v{rec.version}: hole in page {start // ps} "
                f"at [{start - base}, {end - base})"
            )

        sp_fetch = self.obs.tracer.start(
            "pages.fetch", cat="blobseer.data", parent=sp, track=client
        )
        # a range that is all hole reads as zeros
        buf = bytearray(nbytes) if holes is not None and not jobs else None
        sel = self.selector(client)
        for out_pos, piece in jobs:
            data = yield from sweep_fetch(
                engine,
                sel,
                client,
                piece.providers,
                piece.page_id,
                piece.data_offset,
                piece.length,
                "page",
                parent=sp_fetch,
            )
            if data is not None:
                if buf is None:
                    buf = bytearray(nbytes)
                buf[out_pos : out_pos + piece.length] = data
        sp_fetch.finish(fragments=len(jobs))
        sp.finish(version=rec.version)
        return rec.version, (bytes(buf) if buf is not None else None)

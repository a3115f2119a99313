"""The version manager — BlobSeer's only centralized data-path entity.

The version manager (VM) assigns version numbers, decides the offset an
append lands at, and publishes versions *in order*. Everything heavy
(page transport, metadata writes) happens elsewhere and in parallel;
the VM's critical section is a few dictionary updates, which is why the
paper's appenders scale: "Multiple clients can append their data in a
fully parallel manner …; synchronization is required only when writing
the metadata, but this overhead is low."

The write/append protocol, faithful to BlobSeer:

1. the client stripes its data into pages and ships them to providers
   (no offset needed — pages are position-independent);
2. the client asks the VM to *assign* a version: for an append the VM
   picks ``offset = size of the latest assigned version`` and returns a
   :class:`Ticket`;
3. the client writes the new segment-tree nodes to the metadata
   providers once the previous version's tree is complete (the VM
   sequences this metadata turn — the only serialization point);
4. the client *commits*; the VM publishes the version as soon as every
   earlier version is published, making it the visible "latest".

Readers only ever see published versions, so they are never blocked by
(or block) writers — old snapshots stay intact.

:class:`VersionManagerCore` is the whole state machine, append-ticket
leases and commit-queue waits included; it takes the time as an argument
and holds no lock, clock or thread. The runtimes wrap it with thin
adapters that only decide *when* its transitions run:
:class:`ThreadedVersionManager` here (a mutex, a condition variable and
``time.monotonic``) and :class:`~repro.blobseer.sim_vm.SimVMService`
(kernel events on the simulation clock).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..common.config import BlobSeerConfig
from ..common.errors import (
    AppendAbortedError,
    BlobNotFoundError,
    VersionNotFoundError,
    VersionNotReadyError,
)
from ..obs import NULL_OBS, Observability
from ..obs.events import lease_expired
from .metadata.segment_tree import NodeKey, capacity_for


@dataclass(frozen=True, slots=True)
class Ticket:
    """The VM's answer to an assignment request: where the update lands."""

    blob_id: int
    version: int
    offset: int
    nbytes: int
    new_size: int
    page_size: int


@dataclass(slots=True)
class VersionRecord:
    """One (possibly not yet published) version of a BLOB."""

    version: int
    size: int
    kind: str  # "create" | "write" | "append"
    root: Optional[NodeKey] = None
    committed: bool = False
    #: the blob size whose page capacity matches ``root``'s tree — equal
    #: to ``size`` for normal versions, but an *aborted* version inherits
    #: the previous tree, which may be smaller than its assigned size
    tree_size: int = 0
    #: lease expired before commit; published as a zero-length hole
    aborted: bool = False


@dataclass(slots=True)
class BlobState:
    """Everything the VM tracks for one BLOB."""

    blob_id: int
    page_size: int
    #: every assigned version, 0 = the empty creation version
    versions: Dict[int, VersionRecord] = field(default_factory=dict)
    next_version: int = 1
    #: size after the most recently *assigned* (not published) version —
    #: the offset the next append will receive
    assigned_size: int = 0
    #: highest version published so far (visible to readers)
    published: int = 0


def pages_capacity(size: int, page_size: int) -> int:
    """Tree capacity (in pages, power of two) for a blob of *size* bytes."""
    if size == 0:
        return 0
    n_pages = -(-size // page_size)
    return capacity_for(n_pages)


class VersionManagerCore:
    """The VM state machine: no lock, no clock, no thread.

    Callers provide mutual exclusion and pass the time in: every
    transition that can move a version to the head of its commit queue
    takes *now*, read from one monotonic clock of the caller's choosing.
    ``now=None`` means the caller keeps no clock for this step (a
    control-plane shortcut that assigns and commits in one breath, a
    unit test) and starts no lease.

    **Append-ticket leases.** A version's lease clock starts when it
    reaches the head of the commit queue (its predecessor resolved) —
    not at assignment: time spent queued behind slow or dead
    predecessors is not the appender's fault, and counting it would let
    one expiry cascade through every version stalled behind it. The
    clock stops on ``commit``/``submit_ready``/``abort``; a version that
    ``is_ready`` never gets one. :meth:`expire` aborts what is overdue.
    *on_lease_start(deadline)* is called for every clock started, for
    runtimes that must schedule the expiry (the DES); runtimes that can
    simply call :meth:`expire` before each transition need not listen.
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        lease_s: float = 0.0,
        on_lease_start: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._blobs: Dict[int, BlobState] = {}
        self._ids = itertools.count(1)
        #: append-ticket lease length; 0 disables expiry
        self.lease_s = lease_s
        self._on_lease_start = on_lease_start
        #: lease deadline of every version whose clock is running (at
        #: most one per blob); bindings may read it, only the core writes
        self.deadlines: Dict[tuple[int, int], float] = {}
        #: ``min(deadlines.values())``, inf when no clock runs: before it
        #: no lease can be overdue, so a reader need not expire any
        self.earliest_deadline = math.inf
        #: versions given up on while still queued: aborted in turn
        self._abandoned: set[tuple[int, int]] = set()
        #: the writer waiting for its version's metadata turn — one
        #: client owns each version
        self._turn_waiters: Dict[tuple[int, int], Callable[[tuple], None]] = {}
        #: group commit: change maps handed in by ready appenders, keyed
        #: by (blob_id, version), awaiting a publish leader to drain them
        self._pending: Dict[tuple[int, int], object] = {}
        #: versions drained into an in-flight publish batch — protected
        #: from lease expiry until the leader's publish_batch lands
        self._in_flight: set[tuple[int, int]] = set()
        #: the queued appender waiting for publication (or a leader
        #: promotion)
        self._publish_waiters: Dict[tuple[int, int], Callable[[tuple], None]] = {}
        obs = obs or NULL_OBS
        self._tracer = obs.tracer
        self._c_tickets = obs.registry.counter("vm.tickets_assigned")
        self._c_append_tickets = obs.registry.counter("vm.append_tickets")
        self._c_commits = obs.registry.counter("vm.commits")
        self._c_aborts = obs.registry.counter("vm.aborts")
        self._c_lease_expiries = obs.registry.counter("vm.lease_expiries")
        self._c_turn_waits = obs.registry.counter("vm.turn_waits")
        self._g_turn_queue = obs.registry.gauge("vm.turn_queue_depth")
        self._h_ticket_bytes = obs.registry.histogram("vm.append_ticket_bytes")
        self._c_group_commits = obs.registry.counter("vm.group_commits")
        self._h_group_size = obs.registry.histogram("vm.group_commit_size")

    # -- blob lifecycle ------------------------------------------------------

    def create_blob(self, page_size: int) -> int:
        """Register a new BLOB; version 0 is the published empty version."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        blob_id = next(self._ids)
        state = BlobState(blob_id=blob_id, page_size=page_size)
        state.versions[0] = VersionRecord(
            version=0, size=0, kind="create", root=None, committed=True
        )
        self._blobs[blob_id] = state
        return blob_id

    def blob(self, blob_id: int) -> BlobState:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFoundError(f"no blob {blob_id}") from None

    def _record(self, state: BlobState, version: int) -> VersionRecord:
        try:
            return state.versions[version]
        except KeyError:
            raise VersionNotFoundError(
                f"blob {state.blob_id} has no version {version}"
            ) from None

    def _unaborted(self, state: BlobState, version: int) -> VersionRecord:
        record = self._record(state, version)
        if record.aborted:
            raise AppendAbortedError(
                f"blob {state.blob_id} version {version} was aborted "
                f"(append-ticket lease expired before commit)"
            )
        return record

    @property
    def commit_queue_length(self) -> int:
        """How many versions are currently waiting for their metadata
        turn or publication (one per version) — the serialization depth
        the ``vm.turn_queue_depth`` gauge and the telemetry samplers
        record over time."""
        return len(self._turn_waiters) + len(self._publish_waiters)

    # -- assignment (the critical section) ------------------------------------

    def assign_append(
        self, blob_id: int, nbytes: int, now: Optional[float] = None
    ) -> Ticket:
        """Assign a version for an append of *nbytes* bytes.

        The offset is implicitly the size of the latest assigned version —
        BlobSeer's definition of append as "a special case of the write
        operation, in which the offset is implicitly assumed to be the
        size of the latest version".
        """
        if nbytes <= 0:
            raise ValueError("append of zero bytes")
        state = self.blob(blob_id)
        offset = state.assigned_size
        self._c_append_tickets.inc()
        self._h_ticket_bytes.observe(float(nbytes))
        return self._assign(state, offset, nbytes, "append", now)

    def assign_write(
        self, blob_id: int, offset: int, nbytes: int, now: Optional[float] = None
    ) -> Ticket:
        """Assign a version for a write at an explicit *offset*."""
        if nbytes <= 0:
            raise ValueError("write of zero bytes")
        if offset < 0:
            raise ValueError("negative offset")
        state = self.blob(blob_id)
        if offset % state.page_size != 0:
            raise ValueError(
                f"write offset {offset} not aligned to page size {state.page_size}"
            )
        if offset > state.assigned_size:
            raise ValueError(
                f"write at {offset} would leave a hole "
                f"(blob size is {state.assigned_size})"
            )
        return self._assign(state, offset, nbytes, "write", now)

    def _assign(
        self,
        state: BlobState,
        offset: int,
        nbytes: int,
        kind: str,
        now: Optional[float],
    ) -> Ticket:
        self._c_tickets.inc()
        version = state.next_version
        state.next_version += 1
        new_size = max(state.assigned_size, offset + nbytes)
        state.assigned_size = new_size
        state.versions[version] = VersionRecord(
            version=version, size=new_size, kind=kind, tree_size=new_size
        )
        if state.versions[version - 1].committed:
            self._start_lease(state, version, now)
        return Ticket(
            blob_id=state.blob_id,
            version=version,
            offset=offset,
            nbytes=nbytes,
            new_size=new_size,
            page_size=state.page_size,
        )

    # -- metadata sequencing ---------------------------------------------------

    def metadata_prereq(
        self, blob_id: int, version: int
    ) -> Optional[tuple[Optional[NodeKey], int]]:
        """Previous version's ``(root, pages_capacity)`` once available.

        Returns ``None`` while version ``version - 1`` has not committed
        its metadata yet; the caller must wait for its turn (see
        :meth:`when_turn`).
        """
        state = self.blob(blob_id)
        self._record(state, version)
        prev = state.versions.get(version - 1)
        if prev is None or not prev.committed:
            return None
        # capacity must match the tree actually rooted at prev.root: an
        # aborted predecessor carries an older (possibly smaller) tree
        return prev.root, pages_capacity(prev.tree_size, state.page_size)

    def when_turn(
        self, blob_id: int, version: int, callback: Callable[[tuple], None]
    ) -> None:
        """Invoke *callback* with :meth:`metadata_prereq`'s answer once
        ``version - 1`` has committed.

        Fires immediately (synchronously) when already committed.
        """
        prereq = self.metadata_prereq(blob_id, version)
        if prereq is not None:
            callback(prereq)
            return
        self._turn_waiters[(blob_id, version)] = callback
        self._c_turn_waits.inc()
        self._queue_changed()

    def commit(
        self,
        blob_id: int,
        version: int,
        root: Optional[NodeKey],
        now: Optional[float] = None,
    ) -> None:
        """Record the version's metadata root and publish what's publishable."""
        state = self.blob(blob_id)
        record = self._unaborted(state, version)
        if record.committed:
            raise ValueError(f"version {version} committed twice")
        record.root = root
        record.committed = True
        self._c_commits.inc()
        self._finish_version(state, version, now)

    def abort(self, blob_id: int, version: int, now: Optional[float] = None) -> bool:
        """Publish an uncommitted version as a hole so the frontier moves.

        The aborted version inherits the previous version's tree (its
        own pages are simply never linked in); if it was the last
        assigned version its bytes are reclaimed entirely, otherwise the
        assigned range stays as a permanent zero-length hole.

        Returns ``False`` when the version committed in the meantime
        (the appender was slow, not dead — a lost race, not an error).
        Like :meth:`commit`, aborting requires ``version - 1`` to be
        resolved; :meth:`abandon` defers until it is.
        """
        state = self.blob(blob_id)
        record = self._record(state, version)
        if record.committed:
            return False
        prev = state.versions.get(version - 1)
        if prev is None or not prev.committed:
            raise VersionNotReadyError(
                f"cannot abort blob {blob_id} v{version} before "
                f"v{version - 1} resolves"
            )
        record.aborted = True
        record.committed = True
        record.root = prev.root
        record.tree_size = prev.tree_size
        if version == state.next_version - 1 and state.assigned_size == record.size:
            # nothing was assigned after the dead append: reclaim the hole
            state.assigned_size = prev.size
            record.size = prev.size
        self._c_aborts.inc()
        self._finish_version(state, version, now)
        return True

    # -- giving up on a version: leases and timed-out waiters -------------------

    def abandon(self, blob_id: int, version: int, now: Optional[float] = None) -> None:
        """Abort *version* now, or as soon as its predecessor resolves —
        the one rule behind both a lease expiry and a waiter that timed
        out, so later versions are never wedged behind a dead one.

        A no-op for a version that committed or is ready in the
        meantime: once the change map is delivered, publication is the
        group leader's job, not the (possibly dead) client's.
        """
        state = self.blob(blob_id)
        if self._record(state, version).committed or self.is_ready(blob_id, version):
            return
        if state.versions[version - 1].committed:
            self.abort(blob_id, version, now)
        else:
            self._abandoned.add((blob_id, version))

    def expire(self, now: float) -> int:
        """Abandon every version whose lease deadline is at or before
        *now*, earliest first; returns how many.

        Each abort hands the queue head to a successor whose clock
        starts at the *deadline* that just passed, not at *now*, so a
        chain of dead appenders unwinds at ``d, d+L, d+2L`` whether this
        runs on time, late, or once for the whole chain.
        """
        expired = 0
        while self.deadlines:
            key, deadline = min(self.deadlines.items(), key=lambda kv: kv[1])
            if deadline > now:
                break
            self._stop_lease(key)
            self._c_lease_expiries.inc()
            lease_expired(self._tracer, *key)
            self.abandon(*key, deadline)
            expired += 1
        return expired

    def stop_leases(self) -> None:
        """Stop every lease clock and start no more (service shutdown)."""
        self.lease_s = 0.0
        self.deadlines.clear()
        self.earliest_deadline = math.inf

    def _start_lease(
        self, state: BlobState, version: int, now: Optional[float]
    ) -> None:
        """*version* (if assigned yet) just reached the head of the queue."""
        record = state.versions.get(version)
        if (
            now is None
            or self.lease_s <= 0
            or record is None
            or record.committed
            or self.is_ready(state.blob_id, version)
        ):
            return
        deadline = now + self.lease_s
        self.deadlines[(state.blob_id, version)] = deadline
        self.earliest_deadline = min(self.earliest_deadline, deadline)
        if self._on_lease_start is not None:
            self._on_lease_start(deadline)

    def _stop_lease(self, key: tuple[int, int]) -> None:
        """Stop *key*'s lease clock, if one runs."""
        if self.deadlines.pop(key, None) == self.earliest_deadline:
            self.earliest_deadline = min(self.deadlines.values(), default=math.inf)

    # -- group commit (batched metadata publication) ---------------------------

    def is_ready(self, blob_id: int, version: int) -> bool:
        """Whether the appender already handed its change map to the VM
        (queued for a batched publish or drained into one in flight).
        A ready version's fate is the publish leader's responsibility —
        the append-ticket lease no longer applies to it."""
        key = (blob_id, version)
        return key in self._pending or key in self._in_flight

    def submit_ready(
        self, blob_id: int, version: int, changes
    ) -> Optional[tuple]:
        """Group commit step 1: the appender's pages are shipped and its
        per-page fragments (*changes*) are ready for publication; its
        lease is released.

        Returns a *lead grant* ``(prev_root, prev_capacity, batch)``
        when this version heads the commit queue — the caller must build
        and publish the drained *batch* — or ``None`` when it is queued
        behind unresolved versions (wait via :meth:`when_published`).
        """
        state = self.blob(blob_id)
        record = self._unaborted(state, version)
        if record.committed or self.is_ready(blob_id, version):
            raise ValueError(f"version {version} submitted twice")
        self._stop_lease((blob_id, version))
        self._pending[(blob_id, version)] = changes
        if self.metadata_prereq(blob_id, version) is None:
            return None
        return self._lead_grant(state, version)

    def commit_ready(self, blob_id: int, version: int, changes) -> tuple:
        """:meth:`submit_ready` as the ``vm`` endpoint replies it:
        ``("lead", prev_root, prev_capacity, batch)`` or ``("queued",)``."""
        grant = self.submit_ready(blob_id, version, changes)
        return ("queued",) if grant is None else ("lead", *grant)

    def when_published(
        self, blob_id: int, version: int, callback: Callable[[tuple], None]
    ) -> None:
        """Invoke *callback* with the queued appender's outcome:
        ``("published",)`` once a leader publishes the version, or
        ``("lead", prev_root, prev_capacity, batch)`` when the version
        is promoted to publish leader instead (its predecessor resolved
        with it still pending). Fires synchronously when the outcome is
        already decided."""
        state = self.blob(blob_id)
        key = (blob_id, version)
        if self._record(state, version).committed:
            callback(("published",))
        elif key in self._pending and state.versions[version - 1].committed:
            callback(("lead", *self._lead_grant(state, version)))
        else:
            self._publish_waiters[key] = callback
            self._queue_changed()

    def _lead_grant(self, state: BlobState, version: int) -> tuple:
        """Drain the maximal run of consecutive ready versions starting
        at *version* into an in-flight publish batch."""
        blob_id = state.blob_id
        prereq = self.metadata_prereq(blob_id, version)
        assert prereq is not None, "lead granted before predecessor resolved"
        batch: List[tuple] = []
        v = version
        while True:
            changes = self._pending.pop((blob_id, v), None)
            if changes is None:
                break
            self._in_flight.add((blob_id, v))
            batch.append((v, changes, state.versions[v].size))
            v += 1
        return (*prereq, batch)

    def publish_batch(
        self,
        blob_id: int,
        versions: List[int],
        root: Optional[NodeKey],
        tree_size: int,
        now: Optional[float] = None,
    ) -> None:
        """Group commit step 2: the leader built ONE tree for the whole
        batch; every member version now shares *root* (readers clip at
        each member's own ``size``, see
        :func:`~repro.blobseer.metadata.segment_tree.build_versions_batch`).
        """
        if not versions:
            raise ValueError("empty publish batch")
        state = self.blob(blob_id)
        for v in versions:
            key = (blob_id, v)
            if key not in self._in_flight:
                raise ValueError(
                    f"blob {blob_id} v{v} was not drained into a publish batch"
                )
            record = state.versions[v]
            record.root = root
            record.tree_size = tree_size
            record.committed = True
            self._in_flight.discard(key)
            self._c_commits.inc()
        self._c_group_commits.inc()
        self._h_group_size.observe(float(len(versions)))
        self._finish_version(state, versions[-1], now)
        for v in versions:
            callback = self._publish_waiters.pop((blob_id, v), None)
            if callback is not None:
                callback(("published",))
        self._queue_changed()

    def _finish_version(
        self, state: BlobState, version: int, now: Optional[float]
    ) -> None:
        """*version* resolved: advance the publish frontier and hand the
        head of the commit queue to its successor.

        Every caller completes the resolved records (root, size,
        ``committed``) *before* calling this, and only this advances
        ``published``: a reader that resolves without the binding's lock
        (:meth:`ThreadedVersionManager.resolve`) and sees a version
        published therefore sees its record whole. Keep that order.
        """
        blob_id = state.blob_id
        self._stop_lease((blob_id, version))
        while (nxt := state.versions.get(state.published + 1)) and nxt.committed:
            state.published += 1
        succ = (blob_id, version + 1)
        if succ in self._abandoned:
            self._abandoned.discard(succ)
            self.abandon(*succ, now)
        else:
            self._start_lease(state, version + 1, now)
        # wake the next writer's metadata turn
        callback = self._turn_waiters.pop(succ, None)
        if callback is not None:
            callback(self.metadata_prereq(*succ))
        # and promote the next ready run's first version to publish
        # leader, if it is already waiting
        lead = (blob_id, state.published + 1)
        if lead in self._pending and lead in self._publish_waiters:
            self._publish_waiters.pop(lead)(
                ("lead", *self._lead_grant(state, lead[1]))
            )
        self._queue_changed()

    def _queue_changed(self) -> None:
        self._g_turn_queue.set(float(self.commit_queue_length))

    # -- read side ---------------------------------------------------------------

    def resolve(
        self, blob_id: int, version: Optional[int] = None
    ) -> tuple[VersionRecord, int]:
        """``(record, page_size)`` of a *published* version, default the
        latest (old snapshots stay readable)."""
        state = self.blob(blob_id)
        if version is None:
            version = state.published
        record = self._record(state, version)
        if version > state.published:
            raise VersionNotReadyError(
                f"blob {blob_id} version {version} not yet published "
                f"(frontier is {state.published})"
            )
        return record, state.page_size

    def latest_published(self, blob_id: int) -> VersionRecord:
        """The newest version readers may see."""
        return self.resolve(blob_id)[0]


def _locked(name: str, timed: bool = False, wakes: bool = False):
    """The :class:`ThreadedVersionManager` method that runs
    ``core.<name>`` under the mutex with leases brought up to date.
    *timed* transitions get the time appended to their arguments;
    *wakes* ones can resolve a version, so blocked waiters are notified.
    """

    def method(self, *args):
        with self._turn:
            now = self._expire()
            result = getattr(self.core, name)(*args, *((now,) if timed else ()))
            if wakes:
                self._turn.notify_all()
            return result

    method.__name__ = name
    return method


class ThreadedVersionManager:
    """One :class:`VersionManagerCore` behind a mutex, on ``time.monotonic``.

    Leases are evaluated lazily: every method runs ``core.expire(now)``
    on entry, and a blocked waiter sleeps no longer than the earliest
    deadline — so a dead appender is aborted by whoever next touches (or
    is already waiting on) the version manager, at the deadline it would
    have had under a timer. No thread is ever started. Readers take the
    mutex only once a lease is overdue (:meth:`resolve`).
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        config: Optional[BlobSeerConfig] = None,
    ) -> None:
        self.core = VersionManagerCore(
            obs, lease_s=config.append_lease_s if config else 30.0
        )
        #: one mutex for all state (pruning takes it too); waiters of
        #: every blob share its condition
        self._turn = threading.Condition(threading.Lock())
        self._turn_timeout_s = config.metadata_turn_timeout_s if config else 60.0

    def _expire(self) -> float:
        """With the lock held: bring leases up to date; returns now."""
        now = time.monotonic()
        if self.core.expire(now):
            self._turn.notify_all()
        return now

    def _waiting(
        self,
        when,
        blob_id: int,
        version: int,
        what: str,
        timeout: Optional[float] = None,
        wake: Optional[Callable[[], None]] = None,
    ):
        """With the lock held: file a wait for *version*'s outcome
        through *when* (``core.when_turn`` or ``core.when_published``).

        Returns ``(outcome, nap)``. The core's answer lands in the
        *outcome* list — at once when it is already decided, else under
        the lock on whichever thread runs the resolving transition,
        followed by a call to *wake*. ``nap()``, lock held, is the one
        rule every waiter sleeps by: ``None`` once the outcome is in,
        else the seconds it may sleep before asking again — never past
        the earliest lease deadline, so a blocked waiter aborts a dead
        head itself. *timeout* (default ``metadata_turn_timeout_s``) is
        counted once, from here — wake-ups caused by other blobs do not
        restart it. When it runs out the version is abandoned (a no-op
        for a ready or published one), so later versions are never
        wedged behind it, and ``VersionNotReadyError`` is raised.
        """
        outcome: list = []

        def deliver(result) -> None:
            outcome.append(result)
            if wake is not None:
                wake()

        give_up = self._expire() + (
            self._turn_timeout_s if timeout is None else timeout
        )
        when(blob_id, version, deliver)

        def nap() -> Optional[float]:
            if outcome:
                return None
            now = self._expire()
            if outcome:  # expiring a dead head granted it
                return None
            if now >= give_up:
                self.core.abandon(blob_id, version, now)
                self._turn.notify_all()
                raise VersionNotReadyError(
                    f"timed out waiting for {what} of blob {blob_id} v{version}"
                )
            wake_at = min(self.core.deadlines.values(), default=give_up)
            return min(give_up, wake_at) - now

        return outcome, nap

    def _await(self, *wait):
        """Block on the condition variable until the wait is decided."""
        with self._turn:
            outcome, nap = self._waiting(*wait)
            while (delay := nap()) is not None:
                self._turn.wait(delay)
        return outcome[0]

    def _nowait(self, *wait):
        """The same wait for a caller that must not block (the asyncio
        engine's loop): ``(outcome, nap)`` with ``nap`` taking the lock
        itself. The caller sleeps however it sleeps, for at most the
        delay ``nap()`` returned or until *wake* is called, and asks
        again."""
        with self._turn:
            outcome, nap = self._waiting(*wait)

        def locked_nap() -> Optional[float]:
            with self._turn:
                return nap()

        return outcome, locked_nap

    # -- lifecycle -------------------------------------------------------------

    @property
    def live_lease_timers(self) -> int:
        """How many lease clocks are running (plain table entries, not
        threads); zero after :meth:`close`."""
        with self._turn:
            return len(self.core.deadlines)

    def close(self) -> None:
        """Stop lease expiry (idempotent): a service that is shutting
        down must not abort tickets while its components tear down."""
        with self._turn:
            self.core.stop_leases()

    # -- control-endpoint surface (bound as "vm" by the live engines) ---------

    create_blob = _locked("create_blob")
    assign_append = _locked("assign_append", timed=True)
    assign_write = _locked("assign_write", timed=True)
    commit = _locked("commit", timed=True, wakes=True)
    commit_ready = _locked("commit_ready")
    publish_batch = _locked("publish_batch", timed=True, wakes=True)

    def resolve(
        self, blob_id: int, version: Optional[int] = None
    ) -> tuple[VersionRecord, int]:
        """``core.resolve`` — without the mutex while no lease can be
        overdue, so a reader never waits on a writer's transition.

        Before the core's earliest lease deadline, :meth:`_expire` would
        abort nothing, and a version is published only once its record
        is complete (see ``VersionManagerCore._finish_version``), so the
        lock-free answer is one the locked path could have given. Past
        the deadline the reader locks and expires, aborting a dead
        appender as every other transition does.
        """
        if time.monotonic() < self.core.earliest_deadline:
            return self.core.resolve(blob_id, version)
        with self._turn:
            self._expire()
            return self.core.resolve(blob_id, version)

    latest_published = _locked("latest_published")

    def metadata_turn(
        self, blob_id: int, version: int, timeout: Optional[float] = None
    ) -> tuple[Optional[NodeKey], int]:
        """Block until it is *version*'s turn to write metadata (for at
        most *timeout*, default ``metadata_turn_timeout_s``); returns
        the predecessor's ``(root, pages_capacity)``."""
        return self._await(
            self.core.when_turn, blob_id, version, "metadata turn", timeout
        )

    wait_metadata_turn = metadata_turn

    def publish_wait(self, blob_id: int, version: int) -> tuple:
        """Block until a leader publishes this version — or until this
        version is itself promoted to leader (predecessor resolved with
        the batch still unpublished)."""
        return self._await(
            self.core.when_published, blob_id, version, "publication"
        )

    # the two waits again, for the engine whose caller may not block:
    # ``<method>_nowait(wake, *args)`` (see :meth:`_nowait`)

    def metadata_turn_nowait(
        self, wake, blob_id: int, version: int, timeout: Optional[float] = None
    ):
        return self._nowait(
            self.core.when_turn, blob_id, version, "metadata turn", timeout, wake
        )

    def publish_wait_nowait(self, wake, blob_id: int, version: int):
        return self._nowait(
            self.core.when_published, blob_id, version, "publication", None, wake
        )

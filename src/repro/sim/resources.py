"""Shared-resource primitives for the simulation kernel.

:class:`Resource` is a one-slot server with FIFO admission (the version
manager's critical section, a metadata provider, a disk spindle). Most
traffic takes it through :meth:`Resource.round_trip` /
:func:`batch_round_trips`, each call one slotted record that is its own
kernel entry; generator-based holders use :meth:`Resource.request` /
:meth:`Resource.release`, as the locking-append ablation's file lock
does.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .core import Environment, Event


class Request(Event):
    """Admission ticket for a :class:`Resource`; fires when granted.

    Use as ``yield res.request()`` inside a process, and pass the request
    back to :meth:`Resource.release` when done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """One slot, held by one user at a time, with FIFO queueing."""

    __slots__ = ("env", "holder", "_waiting")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: who holds the slot: a granted :class:`Request`, a round-trip
        #: record in service, or ``None`` while the slot is free
        self.holder: Any = None
        # FIFO of waiters: Request events from generator-based users and
        # the round-trip records of contended arrivals
        self._waiting: Deque[Any] = deque()

    def request(self) -> Request:
        """Ask for the slot; the returned event fires on grant."""
        req = Request(self)
        if self.holder is None:
            self.holder = req
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return the slot held by *request*; admits the next waiter.

        Raises :class:`ValueError` unless *request* holds the slot — a
        request still queued, or one already released, holds nothing,
        and releasing it must not admit a second holder.
        """
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        if self.holder is not request:
            raise ValueError("request does not hold the slot")
        self._release_slot()

    def _release_slot(self) -> None:
        if self._waiting:
            nxt = self._waiting.popleft()
            self.holder = nxt
            if nxt.__class__ is Request:
                nxt.succeed(nxt)
            else:
                # a round-trip record: service starts at the grant
                nxt._start(self)
        else:
            self.holder = None

    def round_trip(
        self,
        latency: float,
        service: float,
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        notify: bool = True,
    ) -> Optional[Event]:
        """One RPC round trip against this resource.

        Models the standard simulated RPC: one-way *latency* to the
        server, FIFO admission to the slot, *service* seconds holding
        it, then *latency* back. The returned event fires at the reply's
        arrival with ``fn(*args)``'s result (*fn* runs at the end of
        service, inside the critical section; if it raises, the event
        fails at the service point, as the generator-based equivalent
        would).

        With ``notify=False`` the round trip is fire-and-forget: no
        completion event and no reply leg at all (asynchronous
        persistence uses this; see :func:`batch_round_trips` for the
        batched fan-in form).

        The whole RPC is one :class:`_RoundTrip` record rather than a
        process or a web of closures: the record is the kernel entry of
        its arrival and of its end of service, the waiter a contended
        arrival queues, and the slot's holder while in service. RPCs are
        the hottest construct in the experiment drivers and an
        overloaded open loop keeps tens of thousands of them in flight,
        so both the kernel work and the bytes per call matter.
        """
        rt = _RoundTrip(
            self, latency, service, fn, args, Event(self.env) if notify else None
        )
        if latency:
            self.env.call_in(latency, rt)
        else:
            # a zero-latency round trip (local service, e.g. a disk)
            # joins the queue at the call site, like the generator-based
            # equivalent whose request ran on the bootstrap step
            rt()
        return rt.done


class _RoundTrip:
    """One in-flight :meth:`Resource.round_trip`.

    Called twice: on arrival at the server (``step`` 0; by the kernel,
    or inline for a zero-latency call) and by the kernel at the end of
    service (``step`` 1). Between the two it is either queued in the
    resource's ``_waiting`` or its ``holder``.
    """

    __slots__ = ("resource", "latency", "service", "fn", "args", "done", "step")

    def __init__(
        self,
        resource: Resource,
        latency: float,
        service: float,
        fn: Optional[Callable[..., Any]],
        args: tuple,
        done: Optional[Event],
    ) -> None:
        self.resource = resource
        self.latency = latency
        self.service = service
        self.fn = fn
        self.args = args
        self.done = done
        self.step = 0

    def _start(self, res: Resource) -> None:
        """The slot is granted: service ends *service* seconds on."""
        res.env.call_in(self.service, self)

    def __call__(self) -> None:
        res = self.resource
        if not self.step:
            # arrival: take a free slot inline (no Request), or queue
            # the record itself — release hands the slot over to it
            self.step = 1
            if res.holder is None:
                res.holder = self
                self._start(res)
            else:
                res._waiting.append(self)
            return
        # end of service
        done = self.done
        fn = self.fn
        try:
            value = fn(*self.args) if fn is not None else None
        except Exception as exc:
            res._release_slot()
            if done is None:
                raise
            done.fail(exc)
            return
        res._release_slot()
        if done is not None:
            # fire `done` with the reply exactly one latency later —
            # equivalent to a Timeout but without a second event
            done.triggered = True
            done._value = value
            res.env._schedule(done, delay=self.latency)


class TalliedQueue(deque):
    """A resource's FIFO of waiters (``Resource._waiting``) that keeps a
    *tally*, shared with other queues, of how many of them stand at each
    depth, trailing zeros trimmed: ``len(tally) - 1`` is then the
    deepest of them, exact and O(1) to read, where a scan is O(queues).
    It starts empty; a resource only appends and pops from the left."""

    __slots__ = ("tally",)

    def __init__(self, tally: "list[int]") -> None:
        super().__init__()
        self.tally = tally
        tally[0] += 1

    def append(self, item: Any) -> None:
        deque.append(self, item)
        tally, depth = self.tally, len(self)
        tally[depth - 1] -= 1
        if depth == len(tally):
            tally.append(1)
        else:
            tally[depth] += 1

    def popleft(self) -> Any:
        item = deque.popleft(self)
        tally, depth = self.tally, len(self)
        tally[depth] += 1
        tally[depth + 1] -= 1
        if not tally[-1]:
            tally.pop()
        return item


def batch_round_trips(
    resources: "list[Resource]",
    latency: float,
    service: float,
    done: Event,
) -> None:
    """Fan one RPC out to each resource in *resources* (duplicates allowed)
    in a single arrival step; *done* fires at the last reply's arrival.

    Equivalent to issuing ``len(resources)`` independent
    :meth:`Resource.round_trip` calls at once and waiting for all of
    them — the batch departs together, so every RPC arrives at the same
    instant and in list order, and the last service to end is the last
    reply home (one shared *latency* hop). Collapsing the batch to one
    arrival entry plus a countdown turns the hottest fan-in
    (metadata-RPC charging) from ~3 queue entries per RPC into ~1, and
    the whole batch is one :class:`_BatchRoundTrip` record.
    """
    batch = _BatchRoundTrip(resources, latency, service, done)
    if latency:
        resources[0].env.call_in(latency, batch)
    else:
        batch()


class _BatchRoundTrip:
    """One in-flight :func:`batch_round_trips` fan-out.

    Called by the kernel on arrival (``started`` is still ``None``) and
    at the end of each member's service. Every member's service lasts
    the same *service* seconds, so services end in the order they
    started: ``started`` lists the resources in that order, and the
    *n*-th end of service releases ``started[n]``. The record is the
    holder of each slot it is served at, and what it queues on each
    contended one (twice on a resource listed twice).
    """

    __slots__ = ("resources", "latency", "service", "done", "started", "ended")

    def __init__(
        self, resources: "list[Resource]", latency: float, service: float, done: Event
    ) -> None:
        self.resources = resources
        self.latency = latency
        self.service = service
        self.done = done
        self.started: "Optional[list[Resource]]" = None
        self.ended = 0

    def _start(self, res: Resource) -> None:
        self.started.append(res)
        res.env.call_in(self.service, self)

    def __call__(self) -> None:
        started = self.started
        if started is None:
            # arrival: every member reaches its server at once, in order
            self.started = []
            for res in self.resources:
                if res.holder is None:
                    res.holder = self
                    self._start(res)
                else:
                    res._waiting.append(self)
            return
        res = started[self.ended]
        self.ended += 1
        res._release_slot()
        if self.ended == len(self.resources):
            # last service done: the straggler's reply lands one latency
            # later — fire `done` there, no per-RPC reply leg
            done = self.done
            done.triggered = True
            done._value = None
            res.env._schedule(done, delay=self.latency)

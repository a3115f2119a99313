"""Shared-resource primitives for the simulation kernel.

:class:`Resource` is a one-slot server with FIFO admission (the version
manager's critical section, a metadata provider, a disk spindle). Most
traffic takes it through :meth:`Resource.round_trip` /
:func:`batch_round_trips`; generator-based holders use
:meth:`Resource.request` / :meth:`Resource.release`, as the
locking-append ablation's file lock does.
"""

from __future__ import annotations

import heapq
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

    __slots__ = ("env", "busy", "_waiting")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: whether a user holds the slot
        self.busy = False
        # FIFO of waiters: Request events from generator-based users,
        # bare grant callables from round_trip's contended arrivals
        self._waiting: Deque[Any] = deque()

    def request(self) -> Request:
        """Ask for the slot; the returned event fires on grant."""
        req = Request(self)
        if not self.busy:
            self.busy = True
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return the slot held by *request*; admits the next waiter."""
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        self._release_slot()

    def _release_slot(self) -> None:
        if self._waiting:
            nxt = self._waiting.popleft()
            # the queue holds Request events (generator-based users) and
            # bare grant callbacks (round_trip's contended arrivals)
            if nxt.__class__ is Request:
                nxt.succeed(nxt)
            else:
                nxt()
        else:
            if not self.busy:  # pragma: no cover - defensive
                raise RuntimeError("release without matching request")
            self.busy = False

    def round_trip(
        self,
        latency: float,
        service: float,
        fn: Optional[Callable[[], Any]] = None,
        notify: bool = True,
    ) -> Optional[Event]:
        """One RPC round trip against this resource.

        Models the standard simulated RPC: one-way *latency* to the
        server, FIFO admission to the slot, *service* seconds holding
        it, then *latency* back. The returned event fires at the reply's
        arrival with ``fn()``'s result (*fn* runs at the end of service,
        inside the critical section; if it raises, the event fails at
        the service point, as the generator-based equivalent would).

        With ``notify=False`` the round trip is fire-and-forget: no
        completion event and no reply leg at all (asynchronous
        persistence uses this; see :func:`batch_round_trips` for the
        batched fan-in form).

        This is event-chained rather than process-based on purpose:
        RPCs are the hottest construct in the experiment drivers, and
        skipping the Process/generator/Timeout machinery roughly halves
        the kernel work per call.
        """
        env = self.env
        done = Event(env) if notify else None

        def serviced() -> None:
            try:
                value = fn() if fn is not None else None
            except Exception as exc:
                self._release_slot()
                if done is None:
                    raise
                done.fail(exc)
                return
            self._release_slot()
            if done is None:
                return
            # fire `done` with the reply exactly one latency later —
            # equivalent to a Timeout but without a second event
            done.triggered = True
            done._value = value
            env._schedule(done, delay=latency)

        heap = env._heap

        def start_service() -> None:
            # inlined call_in(service, serviced): this is the hottest
            # scheduling site in the kernel — the callable is the queue
            # entry, no wrapper allocation
            when = env.now + service
            if when > env.now:
                env._eid += 1
                heapq.heappush(heap, (when, env._eid, serviced))
            else:
                env._ring.append(serviced)

        def arrive() -> None:
            if not self.busy:
                # uncontended grant: take the slot inline, no Request
                self.busy = True
                start_service()
            else:
                # contended: queue a bare grant callback — the slot is
                # transferred at release time without a Request event
                self._waiting.append(start_service)

        if latency:
            when = env.now + latency
            if when > env.now:
                env._eid += 1
                heapq.heappush(heap, (when, env._eid, arrive))
            else:
                env._ring.append(arrive)
        else:
            # a zero-latency round trip (local service, e.g. a disk)
            # joins the queue at the call site, like the generator-based
            # equivalent whose request ran on the bootstrap step
            arrive()
        return done


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
    (metadata-RPC charging) from ~3 queue entries per RPC into ~1.
    """
    env = resources[0].env
    remaining = len(resources)

    def make_serviced(res: Resource):
        def serviced() -> None:
            nonlocal remaining
            res._release_slot()
            remaining -= 1
            if remaining == 0:
                # last service done: the straggler's reply lands one
                # latency later — fire `done` there, no per-RPC reply leg
                done.triggered = True
                done._value = None
                env._schedule(done, delay=latency)

        return serviced

    heap = env._heap

    def arrive() -> None:
        for res in resources:
            serviced = make_serviced(res)
            if not res.busy:
                res.busy = True
                when = env.now + service
                if when > env.now:
                    env._eid += 1
                    heapq.heappush(heap, (when, env._eid, serviced))
                else:
                    env._ring.append(serviced)
            else:
                res._waiting.append(
                    lambda s=serviced: env.call_in(service, s)
                )

    if latency:
        env.call_in(latency, arrive)
    else:
        arrive()

"""Discrete-event simulation kernel.

A compact, dependency-free process-based DES in the style of SimPy:
*processes* are Python generators that ``yield`` events (timeouts, other
processes, resource requests, …) and are resumed when those events fire.
The kernel is deterministic: events scheduled at the same instant fire in
scheduling order.

The kernel is the substrate for the performance runtime — BlobSeer,
HDFS and the Map/Reduce framework all run as simulated processes on a
modeled cluster (see :mod:`repro.sim.network`, :mod:`repro.sim.disk`,
:mod:`repro.sim.cluster`).

Queue architecture (the 1M events/s push)
-----------------------------------------

The pending-entry store is a **two-tier calendar queue** instead of one
global binary heap:

* the *near tier* is a FIFO ring (a plain deque), ``_ring``, holding
  every entry scheduled **at the current instant** (delay 0 — process
  resumes, event trigger deliveries, flush-scheduled work). Same-instant
  bursts are the dominant traffic of the coalescing flush hook (a
  reducer wave starting hundreds of fetches, a barrier of flows
  completing together); a deque append+popleft costs ~1/20th of a heap
  push+pop+tuple, and the FIFO order *is* the scheduling order a single
  heap produces via its monotone entry ids.
* the *far tier* is the binary heap of ``(fire_time, eid, entry)``
  tuples for strictly-future work (latency legs, service completions,
  timeouts).

Order equivalence with a single-heap kernel rests on one invariant:
**no entry lands in the far heap at the current instant.** Every
scheduling site routes ``fire_time <= now`` to the near ring (including
the floating-point corner where ``now + tiny_delay == now``), so heap
entries at the current instant can only have been scheduled at an
*earlier* instant — they carry older entry ids than anything in the
ring and are drained first. Within each tier FIFO order equals entry-id
order. The drain order per instant is therefore: heap entries at
``now``, then the ring — exactly the ``(time, eid)`` order of one heap,
which the differential allocator oracle and the DES↔threaded parity
suites re-verify. There is no priority tier and no interrupt delivery:
a process runs until it returns, raises, or waits forever.

One loop, :meth:`Environment.run`, dispatches every entry, whatever the
run ends on (a drained queue, a time horizon, an event).

Queue entries are one of three shapes, cheapest first:

* a **bare callable** — ``call_in``/``call_at`` fire-and-forget
  callbacks (network latency legs, RPC service completions). No
  wrapper object is allocated at all; the callable itself is the
  entry.
* a pooled :class:`_Resume` — resumes a process whose yield target had
  already been processed. Recycled through a freelist immediately
  after dispatch, so steady-state resume traffic allocates nothing.
* an :class:`Event` — user-visible occurrences with waiter lists.
  Events are *not* pooled: callers legitimately hold references after
  processing (``.value``, ``.ok``), so recycling them would corrupt
  observable state.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..common.errors import SimDeadlockError

#: type of the generators that implement simulated processes
ProcessGenerator = Generator["Event", Any, Any]


class _Resume:
    """Internal queue entry: resume a process that yielded an event
    which had already been processed.

    Replaces the throwaway ``immediate`` :class:`Event` the kernel used
    to allocate per already-fired yield target. Instances are recycled
    through :attr:`Environment._resume_pool` right after dispatch.
    """

    __slots__ = ("process", "ok", "value")

    def __init__(self, process: "Process", ok: bool, value: Any) -> None:
        self.process = process
        self.ok = ok
        self.value = value


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* when given a value (or failure), and
    *processed* once the kernel has run its callbacks. Waiting on an
    already-processed event resumes the waiter immediately (next step).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self.triggered = False
        self.processed = False

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        self.env._ring.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exception
        self.env._ring.append(self)
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the failure exception)."""
        if not self.triggered:
            raise RuntimeError("event value read before trigger")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires *delay* simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # `not (delay >= 0)` also rejects NaN, which `delay < 0` lets
        # through — a NaN fire time silently corrupts heap order
        if not (delay >= 0):
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self.triggered = True
        self._value = value
        env._schedule(self, delay=delay)


class Process(Event):
    """A running simulated process; also an event that fires at its return.

    The wrapped generator yields :class:`Event` instances; the process
    sleeps until each fires, then is resumed with the event's value (or
    has the event's exception thrown into it).
    """

    __slots__ = ("generator", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # bootstrap: resume the generator at t=now on the next kernel step
        env._schedule_resume(self, True, None)

    def _resume(self, event: Event) -> None:
        self._do_step(event._ok, event._value)

    def _do_step(self, ok: bool, value: Any) -> None:
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.processed:
            # already fired: resume on the next kernel step
            self.env._schedule_resume(self, target._ok, target._value)
        else:
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every constituent event has fired.

    Succeeds with the list of their values, in the order the events were
    given. Fails as soon as any constituent fails.
    """

    __slots__ = ("events", "_left")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._left = len(self.events)
        if not self._left:
            self.succeed([])
            return
        on_fire = self._on_fire
        for ev in self.events:
            if ev.processed:
                on_fire(ev)
                if self.triggered:
                    return
            else:
                ev.callbacks.append(on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._left -= 1
        if not self._left:
            self.succeed([ev._value for ev in self.events])


class Environment:
    """The simulation clock and the two-tier calendar queue."""

    __slots__ = (
        "now",
        "_heap",
        "_ring",
        "_eid",
        "events_processed",
        "_flush_hooks",
        "_flush_pending",
        "_resume_pool",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        #: far tier: (fire_time, eid, entry) for strictly-future work
        self._heap: List[tuple] = []
        #: near tier: entries firing at the current instant, FIFO
        self._ring: deque = deque()
        self._eid = 0
        #: lifetime count of processed queue entries (events, scheduled
        #: callbacks, resumes) — the denominator of events/sec in the
        #: perf harness
        self.events_processed: int = 0
        #: end-of-timestep flush hooks (see :meth:`add_flush_hook`)
        self._flush_hooks: List[Callable[[], None]] = []
        self._flush_pending: bool = False
        #: freelist of recycled _Resume entries
        self._resume_pool: List[_Resume] = []

    # -- end-of-timestep flush ----------------------------------------------

    def add_flush_hook(self, fn: Callable[[], None]) -> None:
        """Register *fn* to run when a timestep ends — after every queue
        entry at the current instant has been processed, but before
        simulated time advances (or the queue drains).

        Hooks only run after :meth:`request_flush` has been called since
        the last flush. The network uses this to coalesce same-instant
        flow churn into one rate reallocation: rates are only observable
        across time advancement, so deferring the refill to the end of
        the timestep is exact, not an approximation. A hook may schedule
        new work at the current instant; that work (and any re-requested
        flush) is processed before time advances.
        """
        self._flush_hooks.append(fn)

    def request_flush(self) -> None:
        """Arm the end-of-timestep flush (idempotent within a timestep)."""
        self._flush_pending = True

    def _run_flush_hooks(self) -> None:
        self._flush_pending = False
        for fn in self._flush_hooks:
            fn()

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Internal: enqueue an Event *delay* seconds from now."""
        if delay == 0.0:
            self._ring.append(event)
            return
        when = self.now + delay
        if when > self.now:
            self._eid += 1
            heapq.heappush(self._heap, (when, self._eid, event))
        elif when == self.now:
            # sub-resolution delay: now + delay rounded back to now
            self._ring.append(event)
        else:
            raise ValueError(f"negative schedule delay: {delay}")

    def _schedule_resume(self, process: "Process", ok: bool, value: Any) -> None:
        """Enqueue a (pooled) resume of *process* at the current instant."""
        pool = self._resume_pool
        if pool:
            entry = pool.pop()
            entry.process = process
            entry.ok = ok
            entry.value = value
        else:
            entry = _Resume(process, ok, value)
        self._ring.append(entry)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Run bare callback *fn* after *delay* seconds — the fast path
        for fire-and-forget scheduling (no object is allocated at all;
        the callable itself is the queue entry, so the occurrence cannot
        be yielded on). Rejects negative and NaN delays — an entry
        behind ``now`` would corrupt the calendar-queue order."""
        if delay > 0.0:
            when = self.now + delay
            if when > self.now:
                self._eid += 1
                heapq.heappush(self._heap, (when, self._eid, fn))
            else:
                # delay too small for the clock to resolve: fire this instant
                self._ring.append(fn)
        elif delay == 0.0:
            self._ring.append(fn)
        else:
            raise ValueError(f"negative delay: {delay}")

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run bare callback *fn* at absolute time *when* — unlike
        ``call_in(when - now, …)`` the fire time is *when* to the bit,
        which the network's completion heap relies on. Rejects past (and
        NaN) deadlines instead of silently scheduling behind ``now``."""
        now = self.now
        if when > now:
            self._eid += 1
            heapq.heappush(self._heap, (when, self._eid, fn))
        elif when == now:
            self._ring.append(fn)
        else:
            raise ValueError(f"cannot schedule in the past ({when} < {now})")

    def every(
        self,
        period: float,
        fn: Callable[[], None],
        double_after: Optional[int] = None,
    ) -> None:
        """Run bare callback *fn* every *period* seconds, starting one
        period from now, for as long as *other* work keeps the queue
        alive.

        The tick does not reschedule itself when it would be the only
        queue entry left, so a drain-the-queue ``run()`` still
        terminates — the periodic samplers built on this stop with the
        workload instead of keeping the simulation alive forever.

        With *double_after* set, the period doubles after every that
        many ticks: short runs get fine-grained coverage from the
        initial period while the lifetime tick count grows only
        logarithmically with the run's simulated duration — a fixed
        fine period would make sampling dominate the event count of a
        multi-hour simulation.
        """
        if not (period > 0):
            raise ValueError(f"period must be positive: {period}")
        if double_after is not None and double_after < 1:
            raise ValueError(f"double_after must be >= 1: {double_after}")
        state = {"period": period, "ticks": 0}

        def tick() -> None:
            fn()
            if double_after is not None:
                state["ticks"] += 1
                if state["ticks"] % double_after == 0:
                    state["period"] *= 2.0
            if self._heap or self._ring or self._flush_pending:
                self.call_in(state["period"], tick)

        self.call_in(state["period"], tick)

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once every event in *events* has fired."""
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the queue drains.
        * ``until=<float>`` — run until simulated time reaches the value
          (``now`` ends there even if the queue drains first; a past or
          NaN horizon raises :class:`ValueError`).
        * ``until=<Event>`` — run until that event is processed, returning
          its value (raising its exception if it failed); raises
          :class:`SimDeadlockError` if the queue drains first.

        The cyclic garbage collector is paused while the kernel
        dispatches and put back as the caller had it on the way out —
        return, exception, or a run nested inside a callback (which
        finds it off and leaves it off). Dispatch allocates a few
        container objects per event and frees them by reference count;
        the collector would re-walk every live process, generator and
        tree node of the deployment thousands of times per run to find
        nothing. What a run does leave in cycles — the deployment
        itself — the harness collects between deployments
        (:mod:`repro.experiments.deploy`).
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(until)
        finally:
            if was_enabled:
                gc.enable()

    def _run(self, until: "float | Event | None") -> Any:
        # the hot loop of every experiment driver: dispatch is fully
        # inlined so a near-tier entry costs one deque popleft plus the
        # callback itself, with the events_processed tally kept in a
        # local. A run to a horizon or to a drained queue waits on a
        # target that never fires; the horizon is only consulted when
        # time would advance.
        target = until if isinstance(until, Event) else _NEVER
        if until is None or target is until:
            horizon = math.inf
        else:
            horizon = float(until)
            # `not (horizon >= now)` also rejects NaN
            if not (horizon >= self.now):
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
        ring = self._ring
        heap = self._heap
        pop = heapq.heappop
        resume_pool = self._resume_pool
        processed = 0
        try:
            while not target.processed:
                if heap and heap[0][0] <= self.now:
                    entry = pop(heap)[2]
                elif ring:
                    entry = ring.popleft()
                else:
                    # instant exhausted: run deferred work (e.g. the
                    # network's coalesced reallocation) before time
                    # advances, then re-peek — the flush may have
                    # scheduled same-instant entries
                    if self._flush_pending:
                        self._run_flush_hooks()
                        continue
                    if not heap or heap[0][0] > horizon:
                        break
                    when, _eid, entry = pop(heap)
                    self.now = when
                processed += 1
                cls = entry.__class__
                if cls is _Resume:
                    process, ok, value = entry.process, entry.ok, entry.value
                    entry.process = entry.value = None
                    resume_pool.append(entry)
                    process._do_step(ok, value)
                    continue
                if cls is Event or isinstance(entry, Event):
                    callbacks = entry.callbacks
                    entry.callbacks = None
                    entry.processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(entry)
                    elif not entry._ok:
                        # an unwaited-for failure must not pass silently
                        raise entry._value
                    continue
                entry()  # bare callable from call_in/call_at
        finally:
            self.events_processed += processed
        if target is until:
            if not target.processed:
                raise SimDeadlockError(f"event queue drained before {target!r} fired")
            if not target._ok:
                raise target._value
            return target._value
        if until is not None:
            self.now = horizon
        return None


class _Never:
    """The target of a run that ends on a horizon or a drained queue."""

    __slots__ = ()
    processed = False


_NEVER = _Never()

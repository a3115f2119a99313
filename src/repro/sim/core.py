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

* the *near tier* is a pair of FIFO rings (plain deques): ``_ring``
  holds every entry scheduled **at the current instant** (delay 0 —
  process resumes, event trigger deliveries, flush-scheduled work) and
  ``_urgent`` holds priority-0 entries (interrupt delivery) that must
  run before every same-instant normal entry. Same-instant bursts are
  the dominant traffic of the coalescing flush hook (a reducer wave
  starting hundreds of fetches, a barrier of flows completing
  together); a deque append+popleft costs ~1/20th of a heap
  push+pop+tuple, and the FIFO order *is* the scheduling order the old
  heap produced via its monotone entry ids.
* the *far tier* is the binary heap of ``(fire_time, eid, entry)``
  tuples for strictly-future work (latency legs, service completions,
  timeouts).

Order equivalence with the single-heap kernel rests on one invariant:
**no entry lands in the far heap at the current instant.** Every
scheduling site routes ``fire_time <= now`` to the near ring (including
the floating-point corner where ``now + tiny_delay == now``), so heap
entries at the current instant can only have been scheduled at an
*earlier* instant — they carry older entry ids than anything in the
ring and are drained first. Within each tier FIFO order equals entry-id
order. The drain order per instant is therefore: urgent ring, then
heap entries at ``now``, then the normal ring — exactly the
``(time, priority, eid)`` order of the old kernel, which the
differential allocator oracle and the DES↔threaded parity suites
re-verify.

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
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..common.errors import InterruptedProcessError, SimDeadlockError

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


class Interruption(Event):
    """Internal event used to deliver an interrupt into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self.process = process
        self.triggered = True
        self._ok = False
        self._value = InterruptedProcessError(cause)
        # priority 0: delivered before every same-instant normal entry
        self.env._urgent.append(self)


class Process(Event):
    """A running simulated process; also an event that fires at its return.

    The wrapped generator yields :class:`Event` instances; the process
    sleeps until each fires, then is resumed with the event's value (or
    has the event's exception thrown into it).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # bootstrap: resume the generator at t=now on the next kernel step
        env._schedule_resume(self, True, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptedProcessError` into the process.

        Used by failure-injection tests to kill providers mid-transfer.
        Interrupting a finished process is a no-op.
        """
        if not self.is_alive:
            return
        Interruption(self, cause).callbacks.append(self._deliver_interrupt)

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return
        # detach from whatever we were waiting for
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._do_step(event._ok, event._value)

    def _step(self, event: Event) -> None:
        self._do_step(event._ok, event._value)

    def _do_step(self, ok: bool, value: Any) -> None:
        env = self.env
        env._active_process = self
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        env._active_process = None
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.processed:
            # already fired: resume on the next kernel step
            env._schedule_resume(self, target._ok, target._value)
        else:
            self._target = target
            target.callbacks.append(self._resume)


class Condition(Event):
    """Waits for all (or any) of a set of events.

    Succeeds with a list of the values of the events that had fired by
    trigger time, in the order the events were given. Fails as soon as
    any constituent fails.
    """

    __slots__ = ("events", "need", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event], need: int) -> None:
        super().__init__(env)
        # subclasses hand in a list they already materialized; reuse it
        # instead of copying (these fan-ins sit on the page-ship path)
        self.events: List[Event] = (
            events if type(events) is list else list(events)
        )
        if need < 0 or need > len(self.events):
            raise ValueError(f"need={need} out of range for {len(self.events)} events")
        self.need = need
        self._done = 0
        if need == 0 or not self.events:
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
        self._done += 1
        if self._done >= self.need:
            values = [ev._value for ev in self.events if ev.triggered and ev._ok]
            self.succeed(values)


class AllOf(Condition):
    """Fires when every constituent event has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(env, events, need=len(events))


class AnyOf(Condition):
    """Fires when at least one constituent event has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(env, events, need=min(1, len(events)))


class Environment:
    """The simulation clock and the two-tier calendar queue."""

    __slots__ = (
        "now",
        "_heap",
        "_ring",
        "_urgent",
        "_eid",
        "_active_process",
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
        #: priority-0 entries (interrupt delivery), before every normal
        #: same-instant entry
        self._urgent: deque = deque()
        self._eid = 0
        self._active_process: Process | None = None
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

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        """Internal: enqueue an Event *delay* seconds from now."""
        if not priority:
            self._urgent.append(event)
            return
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

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run *callback* at absolute simulated time *when*; returns the
        event so callers can also wait on it."""
        if not (when >= self.now):
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        ev = Timeout(self, when - self.now)
        ev.callbacks.append(lambda _ev: callback())
        return ev

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
            if self._heap or self._ring or self._urgent or self._flush_pending:
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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing once any event in *events* has fired."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------

    def _pending(self) -> bool:
        """Any queue entry at all (either tier)?"""
        return bool(self._urgent or self._ring or self._heap)

    def step(self) -> None:
        """Process the next scheduled entry (running a pending flush
        first when the current instant is exhausted)."""
        urgent = self._urgent
        ring = self._ring
        heap = self._heap
        now = self.now
        if self._flush_pending and not urgent and not ring and (
            not heap or heap[0][0] > now
        ):
            self._run_flush_hooks()
        # drain order within the instant: urgent ring, then heap entries
        # scheduled at `now` from earlier instants (older entry ids),
        # then the normal ring — see the module docstring
        if urgent:
            entry = urgent.popleft()
        elif heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)[2]
        elif ring:
            entry = ring.popleft()
        elif heap:
            when, _eid, entry = heapq.heappop(heap)
            self.now = when
        else:
            raise IndexError("step from an empty queue")
        self.events_processed += 1
        self._dispatch(entry)

    def _dispatch(self, entry: Any) -> None:
        """Run one queue entry (shared by step(); run() inlines this)."""
        cls = entry.__class__
        if cls is _Resume:
            process, ok, value = entry.process, entry.ok, entry.value
            entry.process = entry.value = None
            self._resume_pool.append(entry)
            process._do_step(ok, value)
            return
        if cls is Event or isinstance(entry, Event):
            callbacks = entry.callbacks
            entry.callbacks = None
            entry.processed = True
            if callbacks:
                for cb in callbacks:
                    cb(entry)
            elif not entry._ok and not isinstance(entry, Interruption):
                # an unwaited-for failure must not pass silently
                raise entry._value
            return
        entry()  # bare callable from call_in/call_at

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the queue drains.
        * ``until=<float>`` — run until simulated time reaches the value.
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
        if isinstance(until, Event):
            # the hot loop of every experiment driver: dispatch is fully
            # inlined so a near-tier entry costs one deque popleft plus
            # the callback itself, with the events_processed tally kept
            # in a local
            target = until
            urgent = self._urgent
            ring = self._ring
            heap = self._heap
            pop = heapq.heappop
            resume_pool = self._resume_pool
            processed = 0
            try:
                while not target.processed:
                    if urgent:
                        entry = urgent.popleft()
                    elif heap and heap[0][0] <= self.now:
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
                        if not heap:
                            raise SimDeadlockError(
                                f"event queue drained before {target!r} fired"
                            )
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
                        elif not entry._ok and not isinstance(entry, Interruption):
                            raise entry._value
                        continue
                    entry()
            finally:
                self.events_processed += processed
            if not target._ok:
                raise target._value
            return target._value
        if until is None:
            while True:
                if self._pending():
                    self.step()
                elif self._flush_pending:
                    # a pending flush may arm new work (e.g. deferred
                    # flow-completion timers) before the queue drains
                    self._run_flush_hooks()
                else:
                    return None
        horizon = float(until)
        if horizon < self.now:
            raise ValueError(f"until={horizon} is in the past (now={self.now})")
        heap = self._heap
        while True:
            if self._urgent or self._ring:
                self.step()
                continue
            if self._flush_pending and (not heap or heap[0][0] > self.now):
                self._run_flush_hooks()
                continue
            if heap and heap[0][0] <= horizon:
                self.step()
                continue
            break
        self.now = horizon
        return None

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

"""Span-based tracing with parent/child contexts and a pluggable clock.

A :class:`Span` is one timed interval of one named operation on one
*track* (a client, a host, a tasktracker). Spans form trees: a span
created while another is active (either passed explicitly as *parent*
or found on the calling thread's context stack) records that span as
its parent, which is what lets the Chrome trace viewer nest an append's
version-assignment wait inside the append.

Two usage styles, matching the two runtimes:

* **threaded code** uses the context-manager form — ``with
  tracer.span("mr.map_task", cat="mapreduce"):`` — which maintains a
  per-thread stack of active spans, so nested ``with`` blocks parent
  automatically;
* **simulated processes** interleave many logical activities on one
  thread, where an implicit stack would cross-link unrelated processes.
  They create spans explicitly — ``sp = tracer.start(...)`` …
  ``sp.finish()`` — and pass ``parent=`` by hand.

The clock is injectable (:meth:`Tracer.use_clock`) so simulated spans
carry simulated timestamps; rebasing keeps time monotonic when several
deployments (each restarting its simulation clock at zero) share one
tracer.

When the tracer is disabled every ``start``/``span`` call returns the
shared :data:`NULL_SPAN`, whose methods do nothing — the instrumented
hot paths pay one attribute load and one flag check.

**Head sampling is inheritance.** An enabled tracer applies one more
rule: a span whose *parent* is :data:`NULL_SPAN` is :data:`NULL_SPAN`.
Whoever opens the root of a tree decides once whether to record it (a
long-running server keeps one request in N, see :mod:`repro.server.app`)
and hands ``NULL_SPAN`` down as the parent otherwise; everything below
then records nothing, with no second code path in the instrumented
layers. **Retention is a ring**: ``Tracer(max_spans=N)`` keeps the N
most recently started spans and forgets the rest; the default keeps
every span, which is what bounded runs (figures, tests) want.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from types import MappingProxyType
from typing import Any, Callable, Deque, Dict, List, Optional


class Span:
    """One timed, named interval; also a context manager."""

    __slots__ = (
        "name",
        "cat",
        "track",
        "start",
        "end",
        "args",
        "span_id",
        "parent_id",
        "instant",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        cat: str,
        track: str,
        start: float,
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        #: True for zero-duration moment markers (fault injections,
        #: lease expiries) — exported as Chrome instant events
        self.instant = False

    def set(self, **args: Any) -> "Span":
        """Attach key/value annotations (shown in the trace viewer)."""
        self.args.update(args)
        return self

    def finish(self, **args: Any) -> "Span":
        """Close the span at the tracer's current time (idempotent)."""
        if self.end is None:
            if args:
                self.args.update(args)
            self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self)
        if exc_type is not None:
            self.args.setdefault("error", repr(exc))
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"dur={self.end - self.start:.6f}"
        return f"<Span {self.name!r} cat={self.cat!r} {state}>"


class _NullSpan:
    """The do-nothing span: what a disabled tracer hands out, and what
    an enabled one hands out below an unrecorded parent."""

    __slots__ = ()
    name = ""
    cat = ""
    track = ""
    start = 0.0
    end = 0.0
    span_id = None
    parent_id = None
    instant = False
    # immutable: a write through a disabled span must fail loudly rather
    # than leak shared state across every user of NULL_SPAN
    args: "MappingProxyType[str, Any]" = MappingProxyType({})

    def set(self, **args: Any) -> "_NullSpan":
        # annotations on a disabled span are dropped; the returned span
        # is itself a no-op, so chained calls stay harmless
        return self

    def finish(self, **args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: shared instance returned for every span that is not recorded
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from one run; thread-safe."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        max_spans: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._base = 0.0
        #: the spans retained, in start order: every span ever started,
        #: or with *max_spans* the most recent that many
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._next_id = 1
        self._max_ts = 0.0
        self._tls = threading.local()

    # -- time ----------------------------------------------------------------

    def now(self) -> float:
        """The tracer's current timestamp: the clock plus the offset that
        lays it out after the clocks used before it."""
        return self._base + self._clock()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Switch the time source (e.g. to a simulation's ``env.now``).

        The new clock's zero is aligned just past the latest timestamp
        already recorded, so successive deployments — each restarting
        its simulated clock at zero — lay out sequentially instead of on
        top of each other.
        """
        with self._lock:
            self._base = self._max_ts
            self._clock = clock

    # -- span lifecycle -------------------------------------------------------

    def start(
        self,
        name: str,
        cat: str = "",
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        **args: Any,
    ):
        """Open a span; the caller must :meth:`Span.finish` it.

        *parent* defaults to the calling thread's innermost ``with``
        span (if any). *track* defaults to the parent's track, then to
        the thread name. Below an unrecorded parent (:data:`NULL_SPAN`)
        nothing is recorded.
        """
        if not self.enabled or parent is NULL_SPAN:
            return NULL_SPAN
        if parent is None:
            parent = self.current()
        if track is None:
            track = (
                parent.track if parent is not None
                else threading.current_thread().name
            )
        ts = self.now()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                self,
                span_id,
                parent.span_id if parent is not None else None,
                name,
                cat,
                track,
                ts,
                dict(args),
            )
            self.spans.append(span)
            if ts > self._max_ts:
                self._max_ts = ts
        return span

    #: alias emphasizing the ``with tracer.span(...)`` usage
    span = start

    def instant(
        self,
        name: str,
        cat: str = "",
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        **args: Any,
    ):
        """Record a zero-duration moment marker (already finished).

        Instants annotate the timeline — a provider crash, a lease
        expiry — so chaos runs render failures aligned against the spans
        they perturb. Exported as Chrome ``"i"`` instant events.
        """
        span = self.start(name, cat=cat, parent=parent, track=track, **args)
        if span is NULL_SPAN:
            return span
        span.instant = True
        span.end = span.start
        return span

    def _finish(self, span: Span) -> None:
        ts = self.now()
        with self._lock:
            span.end = ts
            if ts > self._max_ts:
                self._max_ts = ts

    # -- the per-thread context stack ----------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The calling thread's innermost active ``with`` span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit, be safe
            stack.remove(span)

    # -- inspection -----------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans started but never finished, in start order.

        A non-empty result after a run usually marks a protocol path
        that errored between ``start`` and ``finish`` — the exporters
        flag these instead of silently dropping them.
        """
        with self._lock:
            return [s for s in self.spans if s.end is None]

    def snapshot(self) -> List[Span]:
        """Every recorded span (finished, open, instant), in start order."""
        with self._lock:
            return list(self.spans)

    @property
    def max_ts(self) -> float:
        """The latest timestamp recorded so far (start or end)."""
        with self._lock:
            return self._max_ts

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

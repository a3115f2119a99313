"""A metrics registry: counters, gauges, and percentile histograms.

Instruments are created (or fetched) by name from a
:class:`MetricsRegistry`; components hold the returned handle, so the
hot-path cost of recording a fact is one method call on a small object
that takes no lock. A disabled registry hands out shared null
instruments whose methods do nothing, which is what lets every
component take a registry unconditionally.

Who writes what:

- a :class:`Counter` is a :class:`~repro.common.tally.Tally`: each
  thread adds into its own cell, and a read sums the cells;
- a :class:`Gauge` is either set (one attribute store) or backed by a
  source function that a read calls, so a value derived from a
  component's own state costs nothing until somebody looks;
- a :class:`Histogram` appends each observation to one buffer, which
  every thread shares (a list append is atomic). The buffer is drained
  into the statistics under the histogram's lock when it reaches
  :data:`_DRAIN_AT` values or at any readout, in stream order, so
  every readout equals what observing each value under the lock gave.

Histograms keep their raw samples (experiment runs observe thousands,
not millions, of values) and report linearly interpolated percentiles,
matching ``numpy.percentile``'s default so tests can cross-check. Long
perf sweeps can bound histogram memory with a sampling reservoir
(``max_samples``): count/mean/min/max stay exact, percentiles come
from a uniform sample of the stream (the skip-ahead reservoir, Li's
Algorithm L, with a deterministic per-histogram seed).
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from typing import Callable, Dict, List, Optional, Union

from ..common.tally import Tally
from .timeseries import _NULL_TIMESERIES, TimeSeries

#: observations a histogram buffers before the observing thread drains
#: them into its statistics
_DRAIN_AT = 1024


class Counter:
    """A monotonically increasing total.

    Thread-safe without a lock: ``inc`` adds into the calling thread's
    cell of a :class:`~repro.common.tally.Tally`, which only that thread
    writes, so no update is lost; ``value`` sums the cells.
    """

    __slots__ = ("name", "_tally")

    def __init__(self, name: str) -> None:
        self.name = name
        self._tally = Tally()

    def inc(self, amount: float = 1.0) -> None:
        self._tally.cell()[0] += amount

    @property
    def value(self) -> float:
        return float(sum(self._tally.column(0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time value (queue depth, imbalance ratio, …).

    Either set — a single attribute store (atomic under the GIL), so no
    lock is needed and last-writer-wins — or backed by a *source*
    function that every read of ``value`` calls, on the reading thread.
    A gauge with a source ignores ``set``.
    """

    __slots__ = ("name", "_value", "_source")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._source: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        source = self._source
        return self._value if source is None else float(source())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """A distribution of observed values with percentile readout.

    With ``max_samples`` set, at most that many raw samples are kept in
    a uniform reservoir (Algorithm L, deterministically seeded from the
    histogram name): ``count``/``mean``/``min``/``max``/``total`` remain
    exact over the whole stream, while percentiles are estimated from
    the reservoir. A full reservoir costs one comparison per value — the
    stream index of the next value to keep is drawn ahead, so random
    numbers are spent per *replacement* (``cap·ln(n/cap)`` of them over
    ``n`` values), not per value. Default is unbounded (keep everything).

    Thread-safe: any thread may observe, and ``observe`` takes no lock —
    it appends to ``_buf``, a list that is never replaced. The thread
    whose observe fills the buffer to :data:`_DRAIN_AT`, and every
    readout, drains it under ``_lock``: the values present are sliced
    off the front (appends racing the drain land behind them) and run
    through the statistics in stream order, so the reservoir and the
    lazy re-sort never see two writers. An *empty* histogram (idle
    server, zero requests) reads out as all-zero, never NaN and never
    an error: ``percentile``/``mean`` return ``0.0`` and ``summary()``
    is all-zero, so run reports on an idle process always render.
    """

    __slots__ = (
        "name", "_buf", "_samples", "_sorted", "_total",
        "_max_samples", "_n", "_min", "_max", "_rng", "_lock",
        "_keep_at", "_w",
    )

    def __init__(self, name: str, max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self._lock = threading.Lock()
        #: observed values not yet drained into the statistics below
        self._buf: List[float] = []
        self._samples: List[float] = []
        self._sorted = True
        self._total = 0.0
        self._max_samples = max_samples
        self._n = 0  # drained stream length (>= len(_samples) when capped)
        self._min = 0.0
        self._max = 0.0
        # seeded per-name so capped percentiles are reproducible
        self._rng = (
            random.Random(zlib.crc32(name.encode()))
            if max_samples is not None
            else None
        )
        #: stream index of the next value the full reservoir keeps, and
        #: Algorithm L's running weight (both set when it fills)
        self._keep_at = -1
        self._w = 1.0

    def _skip_ahead(self, n: int) -> None:
        """Draw which stream index after *n* is kept next: the weight
        shrinks by a ``U**(1/cap)`` factor per kept value and the gap is
        geometric in it (Li 1994, Algorithm L)."""
        rng = self._rng
        w = self._w = self._w * math.exp(
            math.log(1.0 - rng.random()) / self._max_samples
        )
        # w == 1.0 only if the draw above was the 2**-53 case: gap 0
        gap = math.log(1.0 - rng.random()) / math.log1p(-w) if w < 1.0 else 0.0
        self._keep_at = n + int(gap) + 1

    def observe(self, value: float) -> None:
        buf = self._buf
        buf.append(value)
        if len(buf) >= _DRAIN_AT:
            with self._lock:
                self._drain_locked()

    def _drain_locked(self) -> None:
        """Fold the buffered values into the statistics, oldest first
        (lock held by caller)."""
        buf = self._buf
        k = len(buf)
        if not k:
            return
        batch = buf[:k]
        del buf[:k]
        n = self._n
        end = self._n = n + k
        total = self._total
        lo, hi = (self._min, self._max) if n else (batch[0], batch[0])
        for value in batch:
            # in-order additions: sum() compensates from Python 3.12 on
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self._total, self._min, self._max = total, lo, hi
        cap = self._max_samples
        samples = self._samples
        if cap is None:
            samples.extend(batch)
            self._sorted = False
            return
        if n < cap:
            samples.extend(batch[: cap - n])
            self._sorted = False
            if end < cap:
                return
            self._skip_ahead(cap - 1)
        rng = self._rng
        while self._keep_at < end:
            kept = self._keep_at
            # a uniformly chosen slot, so sorting in between is free
            samples[rng.randrange(cap)] = batch[kept - n]
            self._sorted = False
            self._skip_ahead(kept)

    @property
    def count(self) -> int:
        with self._lock:
            self._drain_locked()
            return self._n

    @property
    def total(self) -> float:
        with self._lock:
            self._drain_locked()
            return self._total

    @property
    def mean(self) -> float:
        with self._lock:
            self._drain_locked()
            return self._total / self._n if self._n else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            self._drain_locked()
            return self._min

    @property
    def max(self) -> float:
        with self._lock:
            self._drain_locked()
            return self._max

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0..100), linearly interpolated between
        order statistics — numpy's default method.

        An empty histogram returns ``0.0`` (documented contract: never
        NaN, never an exception — idle-server reports must render).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        with self._lock:
            self._drain_locked()
            if not self._samples:
                return 0.0
            if not self._sorted:
                self._samples.sort()
                self._sorted = True
            rank = (p / 100.0) * (len(self._samples) - 1)
            lo = int(rank)
            frac = rank - lo
            if frac == 0.0 or lo + 1 >= len(self._samples):
                return self._samples[lo]
            return self._samples[lo] + frac * (
                self._samples[lo + 1] - self._samples[lo]
            )

    def summary(self) -> Dict[str, float]:
        """count/mean/min/p50/p95/p99/max in one dict."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    mean = 0.0
    min = 0.0
    max = 0.0
    total = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": 0.0, "mean": 0.0, "min": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

Instrument = Union[Counter, Gauge, Histogram, TimeSeries]


class MetricsRegistry:
    """Named instruments for one run; get-or-create, thread-safe."""

    def __init__(
        self,
        enabled: bool = True,
        default_hist_max_samples: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        #: reservoir cap applied to histograms created by this registry
        #: (None = unbounded). The perf harness caps its registries so
        #: long sweeps cannot grow without limit.
        self.default_hist_max_samples = default_hist_max_samples
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                if cls is Histogram:
                    inst = cls(name, self.default_hist_max_samples)
                else:
                    inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        return self._get(name, Counter)

    def gauge(
        self, name: str, source: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """Get-or-create a gauge; with *source*, every read of it calls
        *source* instead (the last source registered under a name wins,
        as the last ``set`` would)."""
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        gauge = self._get(name, Gauge)
        if source is not None:
            gauge._source = source
        return gauge

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        return self._get(name, Histogram)

    def timeseries(self, name: str, capacity: int = 4096) -> TimeSeries:
        """Get-or-create a ring-buffer time series (see its module).

        *capacity* only applies on creation; a later fetch with a
        different capacity returns the existing series unchanged.
        """
        if not self.enabled:
            return _NULL_TIMESERIES  # type: ignore[return-value]
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = TimeSeries(name, capacity)
            elif not isinstance(inst, TimeSeries):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested TimeSeries"
                )
            return inst

    # -- readout --------------------------------------------------------------

    def _of(self, cls) -> Dict[str, Instrument]:
        """Name → instrument of one kind, sorted by name. Values are read
        after the registry lock is released: a gauge's source may take
        its component's lock."""
        with self._lock:
            return {
                n: i
                for n, i in sorted(self._instruments.items())
                if isinstance(i, cls)
            }

    def counters(self) -> Dict[str, float]:
        """Name → value of every counter, sorted by name."""
        return {n: i.value for n, i in self._of(Counter).items()}

    def gauges(self) -> Dict[str, float]:
        """Name → value of every gauge, sorted by name."""
        return {n: i.value for n, i in self._of(Gauge).items()}

    def histograms(self) -> Dict[str, Histogram]:
        """Name → histogram, sorted by name."""
        return self._of(Histogram)  # type: ignore[return-value]

    def series(self) -> Dict[str, TimeSeries]:
        """Name → time series, sorted by name."""
        return self._of(TimeSeries)  # type: ignore[return-value]

    def value(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge value by name (*default* when absent)."""
        with self._lock:
            inst = self._instruments.get(name)
        if inst is None or isinstance(inst, (Histogram, TimeSeries)):
            return default
        return inst.value

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: counters, gauges, histogram summaries, and
        time series (retained points plus a summary)."""
        doc: Dict[str, object] = {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                n: h.summary() for n, h in self.histograms().items()
            },
        }
        series = self.series()
        if series:
            doc["timeseries"] = {
                n: {"summary": s.summary(), "points": s.points()}
                for n, s in series.items()
            }
        return doc

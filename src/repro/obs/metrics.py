"""A metrics registry: counters, gauges, and percentile histograms.

Instruments are created (or fetched) by name from a
:class:`MetricsRegistry`; components hold the returned handle, so the
hot-path cost of an increment is one method call on a small object.
A disabled registry hands out shared null instruments whose methods do
nothing, which is what lets every component take a registry
unconditionally.

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
from typing import Dict, Iterable, List, Optional, Union

from .timeseries import _NULL_TIMESERIES, TimeSeries


class Counter:
    """A monotonically increasing total.

    Thread-safe: the threaded runtime increments shared counters from
    many caller threads, and ``+=`` on an attribute is a
    read-modify-write that drops updates under races.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time value (queue depth, imbalance ratio, …).

    A set is a single attribute store (atomic under the GIL), so no
    lock is needed; last-writer-wins is the right semantics anyway.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """A distribution of observed values with percentile readout.

    With ``max_samples`` set, at most that many raw samples are kept in
    a uniform reservoir (Algorithm L, deterministically seeded from the
    histogram name): ``count``/``mean``/``min``/``max`` remain exact
    over the whole stream, while percentiles are estimated from the
    reservoir. A full reservoir costs one comparison per observe — the
    stream index of the next value to keep is drawn ahead, so random
    numbers are spent per *replacement* (``cap·ln(n/cap)`` of them over
    ``n`` values), not per value. Default is unbounded (keep everything).

    Thread-safe: observes and percentile readouts may come from
    concurrent server threads/tasks, and both the reservoir swap and
    the lazy re-sort are multi-step mutations that corrupt under races.
    An *empty* histogram (idle server, zero requests) reads out as
    all-zero, never NaN and never an error: ``percentile``/``mean``
    return ``0.0`` and ``summary()`` is all-zero, so run reports on an
    idle process always render.
    """

    __slots__ = (
        "name", "_samples", "_sorted", "total",
        "_max_samples", "_n", "_min", "_max", "_rng", "_lock",
        "_keep_at", "_w",
    )

    def __init__(self, name: str, max_samples: Optional[int] = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self._lock = threading.Lock()
        self._samples: List[float] = []
        self._sorted = True
        self.total = 0.0
        self._max_samples = max_samples
        self._n = 0  # exact stream length (>= len(_samples) when capped)
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
        with self._lock:
            n = self._n
            self._n = n + 1
            self.total += value
            if n == 0:
                self._min = self._max = value
            else:
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            cap = self._max_samples
            if cap is None or n < cap:
                self._samples.append(value)
                self._sorted = False
                if n + 1 == cap:
                    self._skip_ahead(n)
            elif n == self._keep_at:
                # a uniformly chosen slot, so sorting in between is free
                self._samples[self._rng.randrange(cap)] = value
                self._sorted = False
                self._skip_ahead(n)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self.total / self._n if self._n else 0.0

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
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

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        return self._get(name, Gauge)

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

    def counters(self) -> Dict[str, float]:
        """Name → value of every counter, sorted by name."""
        with self._lock:
            return {
                n: i.value
                for n, i in sorted(self._instruments.items())
                if isinstance(i, Counter)
            }

    def gauges(self) -> Dict[str, float]:
        """Name → value of every gauge, sorted by name."""
        with self._lock:
            return {
                n: i.value
                for n, i in sorted(self._instruments.items())
                if isinstance(i, Gauge)
            }

    def histograms(self) -> Dict[str, Histogram]:
        """Name → histogram, sorted by name."""
        with self._lock:
            return {
                n: i
                for n, i in sorted(self._instruments.items())
                if isinstance(i, Histogram)
            }

    def series(self) -> Dict[str, TimeSeries]:
        """Name → time series, sorted by name."""
        with self._lock:
            return {
                n: i
                for n, i in sorted(self._instruments.items())
                if isinstance(i, TimeSeries)
            }

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

    def names(self) -> Iterable[str]:
        with self._lock:
            return sorted(self._instruments)

"""Ring-buffer time series — the sampled-telemetry instrument.

A :class:`TimeSeries` records ``(timestamp, value)`` observations into a
fixed-capacity ring buffer: periodic samplers (network utilization, disk
queue depth, VM commit-queue length) can run at any cadence without the
registry growing beyond a bound. The exporter renders each series as
Chrome ``trace_event`` ``"C"`` counter rows, so sampled telemetry lines
up under the spans in the trace viewer.

Like every other instrument, a disabled registry hands out the shared
:data:`_NULL_TIMESERIES`, whose ``record`` does nothing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class TimeSeries:
    """Fixed-capacity ring buffer of ``(t, value)`` samples.

    ``last`` and the summary's ``count`` stay exact over the whole
    stream; only the oldest samples are evicted once *capacity* is
    exceeded.
    """

    __slots__ = ("name", "capacity", "_buf", "_head", "_n", "last")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._buf: List[Tuple[float, float]] = []
        self._head = 0  # next write position once the buffer is full
        self._n = 0  # exact stream length (>= len(_buf) after wrap)
        self.last = 0.0

    def record(self, t: float, value: float) -> None:
        """Append one sample, evicting the oldest at capacity."""
        self._n += 1
        self.last = value
        if len(self._buf) < self.capacity:
            self._buf.append((t, value))
        else:
            self._buf[self._head] = (t, value)
            self._head = (self._head + 1) % self.capacity

    def __len__(self) -> int:
        """Samples currently retained (<= capacity)."""
        return len(self._buf)

    def points(self) -> List[Tuple[float, float]]:
        """Retained samples in time order (oldest first)."""
        if self._head == 0:
            return list(self._buf)
        return self._buf[self._head :] + self._buf[: self._head]

    def summary(self) -> Dict[str, float]:
        """count/last/min/max/mean over the *retained* samples."""
        pts = self._buf
        if not pts:
            return {"count": 0.0, "last": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        values = [v for _t, v in pts]
        return {
            "count": float(self._n),
            "last": self.last,
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name} n={self._n} kept={len(self._buf)}>"


class _NullTimeSeries:
    __slots__ = ()
    name = ""
    capacity = 0
    last = 0.0

    def record(self, t: float, value: float) -> None:
        pass

    def points(self) -> List[Tuple[float, float]]:
        return []

    def summary(self) -> Dict[str, float]:
        return {"count": 0.0, "last": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}

    def __len__(self) -> int:
        return 0


#: shared instance handed out by a disabled registry
_NULL_TIMESERIES = _NullTimeSeries()

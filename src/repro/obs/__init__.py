"""Observability: span tracing and a metrics registry for every layer.

The reproduction's performance claims (Figures 3-6) rest on *why*
concurrent appends stay flat — version-assignment serialization,
metadata commit ordering, the client block cache. This package makes
those paths visible without changing their behavior:

* :mod:`repro.obs.tracer` — a span-based tracer (parent/child contexts,
  pluggable clock so simulated and wall time both work, and a no-op
  mode whose per-call cost is a flag check);
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms (p50/p95/p99);
* :mod:`repro.obs.export` — a Chrome ``trace_event`` JSON exporter
  (loadable in ``chrome://tracing`` / Perfetto).

Instrumented components take an :class:`Observability` bundle and
default to :data:`NULL_OBS`, the shared disabled instance: every
instrument call then reduces to a method on a null object, so code
never needs ``if obs is not None`` guards and the disabled overhead is
negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .timeseries import TimeSeries
from .tracer import NULL_SPAN, Span, Tracer
from .critical import CriticalPathReport, attribute
from .export import chrome_trace, write_chrome_trace


@dataclass(slots=True)
class Observability:
    """One tracer plus one metrics registry, handed down a whole stack."""

    tracer: Tracer = field(default_factory=Tracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.registry.enabled

    @classmethod
    def on(cls) -> "Observability":
        """A fully enabled bundle on the wall clock (a deployment may
        switch the tracer to its simulated clock: ``Tracer.use_clock``)."""
        return cls(tracer=Tracer(), registry=MetricsRegistry())

    @classmethod
    def off(cls) -> "Observability":
        """A fresh disabled bundle (prefer :data:`NULL_OBS` as a default)."""
        return cls(
            tracer=Tracer(enabled=False),
            registry=MetricsRegistry(enabled=False),
        )


#: the shared disabled bundle instrumented components default to
NULL_OBS = Observability.off()

__all__ = [
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "Observability",
    "Span",
    "TimeSeries",
    "Tracer",
    "attribute",
    "chrome_trace",
    "write_chrome_trace",
]

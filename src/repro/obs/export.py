"""Exporter: Chrome ``trace_event`` JSON.

The Chrome format (one ``"X"`` complete event per finished span, with
microsecond timestamps and per-track ``tid``/``thread_name`` metadata)
loads directly into ``chrome://tracing`` or https://ui.perfetto.dev —
drop the file in and every append's version-assignment wait, metadata
turn, and page shipping nest visually per client.

Never-finished spans are *not* dropped: they are emitted closed at the
trace's latest timestamp with ``still_open: true`` (and counted), since
an open span after a run usually marks the exact path that failed.
Instant spans (fault injections, lease expiries) become ``"i"`` events;
counters, gauges and sampled time series become ``"C"`` counter rows so
metrics render as staircase plots under the spans.

The terminal readout of the same run is the run report
(:mod:`repro.experiments.runreport`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .tracer import Tracer


def chrome_trace(
    tracer: Tracer, registry: Optional[MetricsRegistry] = None
) -> Dict[str, object]:
    """The tracer's spans (plus *registry* counters) as a Chrome
    ``trace_event`` document."""
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    tids: Dict[str, int] = {}
    spans = tracer.snapshot()
    # a bounded tracer may have forgotten a span's parent: such a span
    # exports as a root
    retained = {span.span_id for span in spans}
    max_ts = tracer.max_ts
    unfinished = 0
    for span in spans:
        tid = tids.get(span.track)
        if tid is None:
            tid = tids[span.track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": span.track},
                }
            )
    for span in spans:
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id in retained:
            args["parent_id"] = span.parent_id
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.cat or "default",
            "ts": span.start * 1e6,
            "pid": 1,
            "tid": tids[span.track],
        }
        if span.instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant marker
        else:
            end = span.end
            if end is None:
                # still open: close at the trace's latest timestamp and
                # flag it rather than silently dropping the span
                end = max(max_ts, span.start)
                args["still_open"] = True
                unfinished += 1
            event["ph"] = "X"
            event["dur"] = (end - span.start) * 1e6
        event["args"] = args
        events.append(event)
    if registry is not None:
        events.extend(_counter_rows(registry, max_ts))
    doc: Dict[str, object] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if unfinished:
        doc["metadata"] = {"spans_unfinished": unfinished}
    return doc


def _counter_rows(
    registry: MetricsRegistry, max_ts: float
) -> List[Dict[str, object]]:
    """Metrics as ``"C"`` counter rows: each time series at its sample
    times, counters/gauges as their final value at the trace end."""
    rows: List[Dict[str, object]] = []
    for name, series in registry.series().items():
        for t, value in series.points():
            rows.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": 1,
                    "args": {"value": value},
                }
            )
    finals = dict(registry.counters())
    finals.update(registry.gauges())
    for name, value in finals.items():
        rows.append(
            {
                "name": name,
                "ph": "C",
                "ts": max_ts * 1e6,
                "pid": 1,
                "args": {"value": value},
            }
        )
    return rows


def write_chrome_trace(
    tracer: Tracer, path: str, registry: Optional[MetricsRegistry] = None
) -> None:
    """Serialize :func:`chrome_trace` to *path*."""
    with open(path, "w") as fp:
        json.dump(chrome_trace(tracer, registry), fp)

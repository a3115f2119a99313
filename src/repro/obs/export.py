"""Exporters: Chrome ``trace_event`` JSON and an aligned text summary.

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

The text summary is the terminal companion: counters, gauges,
histogram percentiles, and a derived section (cache hit-rate, map
locality) aligned for reading next to a figure's numbers.
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


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    """Right-align *rows* (first column left) under *header*."""
    if not rows:
        return []
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows))
        for c in range(len(header))
    ]

    def fmt(cells: List[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest)

    return [fmt(header), "  ".join("-" * w for w in widths)] + [
        fmt(r) for r in rows
    ]


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "n/a (no cache traffic)"
    return f"{100.0 * hits / total:.1f}% ({hits:g} hits / {misses:g} misses)"


def text_summary(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> str:
    """An aligned plain-text readout of one run's metrics (and spans)."""
    lines: List[str] = ["== observability summary =="]

    counters = registry.counters()
    if counters:
        lines.append("")
        lines.append("counters:")
        lines.extend(
            _table(
                ["name", "value"],
                [[n, f"{v:g}"] for n, v in counters.items()],
            )
        )

    gauges = registry.gauges()
    if gauges:
        lines.append("")
        lines.append("gauges:")
        lines.extend(
            _table(
                ["name", "value"],
                [[n, f"{v:g}"] for n, v in gauges.items()],
            )
        )

    histograms = registry.histograms()
    if histograms:
        lines.append("")
        lines.append("histograms:")
        rows = []
        for name, hist in histograms.items():
            s = hist.summary()
            rows.append(
                [name]
                + [
                    f"{s[k]:g}" if k == "count" else f"{s[k]:.6g}"
                    for k in ("count", "mean", "p50", "p95", "p99", "max")
                ]
            )
        lines.extend(
            _table(
                ["name", "count", "mean", "p50", "p95", "p99", "max"], rows
            )
        )

    series = registry.series()
    if series:
        lines.append("")
        lines.append("time series:")
        rows = []
        for name, ts in series.items():
            s = ts.summary()
            rows.append(
                [name, f"{s['count']:g}"]
                + [f"{s[k]:.6g}" for k in ("last", "min", "max", "mean")]
            )
        lines.extend(
            _table(["name", "samples", "last", "min", "max", "mean"], rows)
        )

    # derived readouts the benchmarks care about, always reported
    lines.append("")
    lines.append("derived:")
    lines.append(
        "cache hit-rate: "
        + _rate(
            registry.value("bsfs.cache.hits"),
            registry.value("bsfs.cache.misses"),
        )
    )
    maps_local = registry.value("mr.maps_local")
    maps_total = maps_local + registry.value("mr.maps_remote")
    if maps_total > 0:
        lines.append(
            f"map locality: {100.0 * maps_local / maps_total:.1f}% "
            f"({maps_local:g} of {maps_total:g} map attempts data-local)"
        )

    if tracer is not None and len(tracer):
        lines.append("")
        lines.append("spans:")
        per_cat: Dict[str, List[float]] = {}
        unfinished = 0
        for span in tracer.snapshot():
            if span.instant:
                continue
            if span.end is None:
                unfinished += 1
                continue
            per_cat.setdefault(span.cat or "default", []).append(
                span.end - span.start
            )
        rows = [
            [cat, f"{len(durs)}", f"{sum(durs):.6g}"]
            for cat, durs in sorted(per_cat.items())
        ]
        lines.extend(_table(["category", "count", "total_s"], rows))
        lines.append(f"spans.unfinished: {unfinished}")

    return "\n".join(lines)


def write_text_summary(
    registry: MetricsRegistry, path: str, tracer: Optional[Tracer] = None
) -> None:
    """Serialize :func:`text_summary` to *path*."""
    with open(path, "w") as fp:
        fp.write(text_summary(registry, tracer) + "\n")

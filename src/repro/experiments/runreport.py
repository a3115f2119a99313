"""The run report: one figure run distilled into a text/JSON readout.

``repro-fig --report`` turns a traced run's raw observability into the
questions an experimenter actually asks:

* **where did the time go** — the critical-path layer breakdown
  (:func:`repro.obs.critical.attribute`): network transfer, metadata
  turn wait, charged metadata RPCs, control RPCs, retry backoff, and
  the compute residual, per client track and summed;
* **how were waits distributed** — p50/p95/p99 tables for every
  histogram the run recorded (ticket waits, turn waits, ...);
* **what happened** — counter and gauge finals, time-series summaries,
  how many of the network's flow starts/finishes needed a rate solve
  (``sim.net.flow_changes`` against ``sim.net.reallocs``), and the
  derived BSFS cache hit-rate and Map/Reduce map locality;
* **what went wrong, and when** — the fault timeline (crash/recover
  injections, lease expiries, from :mod:`repro.obs.events` instants)
  and the count of spans that never finished.

The JSON document is the machine-readable contract; the text rendering
is the terminal companion, and the one readout ``repro-fig`` prints
for an observed run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..obs import Observability, attribute
from ..obs.events import FAULT_CAT
from ..obs.tracer import Tracer


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


def fault_timeline(tracer: Tracer) -> List[Dict[str, object]]:
    """Every fault/lease instant of the run, in time order.

    Each entry carries the instant's timestamp, its event name (the
    :mod:`repro.obs.events` vocabulary) and the marker's arguments
    (component/target for injections, blob/version for lease expiries).
    """
    out: List[Dict[str, object]] = []
    for span in tracer.snapshot():
        if span.instant and span.cat == FAULT_CAT:
            entry: Dict[str, object] = {"t": span.start, "event": span.name}
            entry.update(span.args)
            out.append(entry)
    out.sort(key=lambda e: e["t"])  # type: ignore[arg-type, return-value]
    return out


def build_report(
    obs: Observability, figure: Optional[str] = None
) -> Dict[str, object]:
    """Distill one run's observability bundle into the report document."""
    tracer, registry = obs.tracer, obs.registry
    critical = attribute(tracer)
    return {
        "figure": figure,
        "critical_path": critical.to_dict(),
        "histograms": {
            name: hist.summary()
            for name, hist in registry.histograms().items()
        },
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "timeseries": {
            name: series.summary()
            for name, series in registry.series().items()
        },
        "faults": fault_timeline(tracer),
        "spans": {
            "total": len(tracer),
            "unfinished": len(tracer.open_spans()),
        },
    }


def report_text(doc: Dict[str, object]) -> str:
    """The report document rendered for the terminal."""
    figure = doc.get("figure")
    title = f"== run report: {figure} ==" if figure else "== run report =="
    lines: List[str] = [title]

    cp = doc["critical_path"]
    busy = cp["busy_s"]
    lines.append("")
    lines.append(
        f"critical path ({busy:.6g}s busy across {len(cp['tracks'])} "
        f"tracks, {100.0 * cp['attributed_fraction']:.1f}% attributed):"
    )
    layer_rows = [
        [name, f"{secs:.6g}", f"{100.0 * secs / busy:.1f}%" if busy else "-"]
        for name, secs in sorted(
            cp["layers"].items(), key=lambda kv: -kv[1]
        )
    ]
    lines.extend(_table(["layer", "seconds", "share"], layer_rows))

    histograms = doc["histograms"]
    counters = doc["counters"]
    if "sim.net.flow_changes" in counters:
        # how much of the traffic needed the rate solver at all (the
        # network registers all three instruments together)
        scope_mean = histograms["sim.net.realloc_scope"]["mean"]
        lines.append("")
        lines.append(
            f"network flows: {counters['sim.net.flow_changes']:g} starts and "
            f"finishes, {counters['sim.net.reallocs']:g} rate solves "
            f"(mean {scope_mean:.3g} flows per solve)"
        )

    if histograms:
        lines.append("")
        lines.append("latency percentiles:")
        rows = [
            [name]
            + [
                f"{s[k]:g}" if k == "count" else f"{s[k]:.6g}"
                for k in ("count", "mean", "p50", "p95", "p99", "max")
            ]
            for name, s in histograms.items()
        ]
        lines.extend(
            _table(
                ["name", "count", "mean", "p50", "p95", "p99", "max"], rows
            )
        )

    for section in ("counters", "gauges"):
        values = doc[section]
        if values:
            lines.append("")
            lines.append(f"{section}:")
            lines.extend(
                _table(
                    ["name", "value"],
                    [[n, f"{v:g}"] for n, v in values.items()],
                )
            )

    series = doc["timeseries"]
    if series:
        lines.append("")
        lines.append("time series:")
        rows = [
            [name, f"{s['count']:g}"]
            + [f"{s[k]:.6g}" for k in ("last", "min", "max", "mean")]
            for name, s in series.items()
        ]
        lines.extend(
            _table(["name", "samples", "last", "min", "max", "mean"], rows)
        )

    # derived readouts the benchmarks care about, always reported
    hits = counters.get("bsfs.cache.hits", 0.0)
    misses = counters.get("bsfs.cache.misses", 0.0)
    lines.append("")
    lines.append("derived:")
    lines.append(
        f"cache hit-rate: {100.0 * hits / (hits + misses):.1f}% "
        f"({hits:g} hits / {misses:g} misses)"
        if hits + misses > 0
        else "cache hit-rate: n/a (no cache traffic)"
    )
    maps_local = counters.get("mr.maps_local", 0.0)
    maps_total = maps_local + counters.get("mr.maps_remote", 0.0)
    if maps_total > 0:
        lines.append(
            f"map locality: {100.0 * maps_local / maps_total:.1f}% "
            f"({maps_local:g} of {maps_total:g} map attempts data-local)"
        )

    faults = doc["faults"]
    if faults:
        lines.append("")
        lines.append("fault timeline:")
        for entry in faults:
            detail = " ".join(
                f"{k}={v}"
                for k, v in entry.items()
                if k not in ("t", "event")
            )
            lines.append(f"  t={entry['t']:.6g}s {entry['event']} {detail}")

    spans = doc["spans"]
    lines.append("")
    lines.append(
        f"spans: {spans['total']} total, {spans['unfinished']} unfinished"
    )
    return "\n".join(lines)


def write_report(doc: Dict[str, object], path: str) -> None:
    """Serialize the report document as JSON to *path*."""
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")

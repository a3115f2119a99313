"""Critical-path analysis: attribute wall-clock to named layers.

The engine emits one span per op (``engine.call``, ``engine.wait``,
``engine.store``/``fetch``, ``engine.charge_md``, retry sweeps), each
directly under the operation span that issued it
(``blobseer.append``, ``bsfs.read``, ...) or under a group span holding
several ops (``pages.ship``, ``pages.fetch``, ``replica.sweep``). This
walker turns that span forest into a per-track time breakdown: every
instant of a track's busy time (the union of its root spans) is
attributed to exactly one *layer* — the innermost engine span active at
that instant — with the uncovered remainder reported as ``compute``.

Layers, by engine span category:

* ``network``  — data-plane transport (``engine.data``);
* ``turn_wait`` — uncharged metadata-turn waits (``engine.wait``);
* ``metadata`` — charged metadata RPC batches (``engine.md``);
* ``rpc``      — control-plane round trips (``engine.call``);
* ``retry``    — backoff sleeps and failover sweeps (``engine.retry``);
* ``compute``  — busy time not inside any engine op (tree algorithms,
  simulated CPU phases, framework logic).

"Innermost wins" makes the attribution a partition: a replica sweep
(``engine.retry``) containing a fetch (``engine.data``) charges the
fetch's interval to ``network`` and only the backoff gaps to ``retry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .tracer import Span, Tracer

#: engine span category → report layer
DEFAULT_LAYERS: Mapping[str, str] = {
    "engine.data": "network",
    "engine.wait": "turn_wait",
    "engine.md": "metadata",
    "engine.call": "rpc",
    "engine.retry": "retry",
}

#: the residual layer: busy time not covered by any engine span
COMPUTE = "compute"


@dataclass(slots=True)
class TrackBreakdown:
    """One track's attributed time."""

    track: str
    busy_s: float
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class CriticalPathReport:
    """The whole run's layer attribution (sum over tracks)."""

    layers: Dict[str, float]
    busy_s: float
    tracks: List[TrackBreakdown]

    @property
    def attributed_fraction(self) -> float:
        """Fraction of busy time attributed to named layers (with
        ``compute`` as a named residual this is 1.0 up to float noise)."""
        if self.busy_s <= 0.0:
            return 1.0
        return sum(self.layers.values()) / self.busy_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "busy_s": self.busy_s,
            "attributed_fraction": self.attributed_fraction,
            "layers": dict(self.layers),
            "tracks": [
                {"track": t.track, "busy_s": t.busy_s, "layers": dict(t.layers)}
                for t in self.tracks
            ],
        }


def _merged_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    lo, hi = intervals[0]
    for s, e in intervals[1:]:
        if s > hi:
            total += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    return total + (hi - lo)


def _depths(spans: List[Span]) -> Dict[int, int]:
    """Span id → nesting depth (roots at 0; unknown parents are roots)."""
    by_id = {s.span_id: s for s in spans}
    depths: Dict[int, int] = {}

    def depth(sid: int) -> int:
        d = depths.get(sid)
        if d is not None:
            return d
        parent = by_id[sid].parent_id
        d = 0 if parent is None or parent not in by_id else depth(parent) + 1
        depths[sid] = d
        return d

    for s in spans:
        depth(s.span_id)
    return depths


def _attribute_track(
    roots: List[Span],
    layer_spans: List[Tuple[Span, int, str]],
    close_at: float,
) -> TrackBreakdown:
    """Sweep one track: innermost active layer span wins each instant."""

    def end_of(s: Span) -> float:
        return s.end if s.end is not None else max(close_at, s.start)

    track = roots[0].track if roots else layer_spans[0][0].track
    busy = _merged_length([(r.start, end_of(r)) for r in roots])

    # sweep events: (time, order, +1/-1, key) — ends before starts at the
    # same instant so zero-length overlap never double-counts
    events: List[Tuple[float, int, int, Tuple[int, int, str]]] = []
    for order, (span, depth, layer) in enumerate(layer_spans):
        end = end_of(span)
        if end <= span.start:
            continue
        key = (depth, order, layer)
        events.append((span.start, 1, 1, key))
        events.append((end, 0, -1, key))
    busy_events: List[Tuple[float, int, int, None]] = []
    for r in roots:
        end = end_of(r)
        if end > r.start:
            busy_events.append((r.start, 1, 2, None))
            busy_events.append((end, 0, -2, None))

    merged = sorted(
        events + busy_events, key=lambda e: (e[0], e[1])
    )
    layers: Dict[str, float] = {}
    active: List[Tuple[int, int, str]] = []  # (depth, order, layer)
    busy_depth = 0
    prev_t: Optional[float] = None
    for t, _order, kind, key in merged:
        if prev_t is not None and t > prev_t and active and busy_depth > 0:
            innermost = max(active)
            layers[innermost[2]] = layers.get(innermost[2], 0.0) + (t - prev_t)
        prev_t = t
        if kind == 1:
            active.append(key)  # type: ignore[arg-type]
        elif kind == -1:
            active.remove(key)  # type: ignore[arg-type]
        elif kind == 2:
            busy_depth += 1
        else:
            busy_depth -= 1

    covered = sum(layers.values())
    layers[COMPUTE] = max(0.0, busy - covered)
    return TrackBreakdown(track=track, busy_s=busy, layers=layers)


def attribute(
    source: "Tracer | Iterable[Span]",
    layers: Mapping[str, str] = DEFAULT_LAYERS,
) -> CriticalPathReport:
    """Build the critical-path report from a tracer (or span list).

    Open spans are closed at the trace's latest timestamp (matching the
    exporters); instant events carry no duration and are skipped.
    """
    if isinstance(source, Tracer):
        spans = source.snapshot()
        close_at = source.max_ts
    else:
        spans = list(source)
        close_at = max(
            (s.end if s.end is not None else s.start for s in spans),
            default=0.0,
        )
    spans = [s for s in spans if not s.instant]
    if not spans:
        return CriticalPathReport(layers={}, busy_s=0.0, tracks=[])

    by_id = {s.span_id: s for s in spans}
    depths = _depths(spans)

    per_track_roots: Dict[str, List[Span]] = {}
    per_track_layers: Dict[str, List[Tuple[Span, int, str]]] = {}
    for s in spans:
        if s.parent_id is None or s.parent_id not in by_id:
            per_track_roots.setdefault(s.track, []).append(s)
        layer = layers.get(s.cat)
        if layer is not None:
            per_track_layers.setdefault(s.track, []).append(
                (s, depths[s.span_id], layer)
            )

    tracks: List[TrackBreakdown] = []
    for track in sorted(set(per_track_roots) | set(per_track_layers)):
        roots = per_track_roots.get(track, [])
        if not roots:
            continue  # layer spans with no root on their track: unscoped
        tracks.append(
            _attribute_track(roots, per_track_layers.get(track, []), close_at)
        )

    total: Dict[str, float] = {}
    busy = 0.0
    for t in tracks:
        busy += t.busy_s
        for name, secs in t.layers.items():
            total[name] = total.get(name, 0.0) + secs
    return CriticalPathReport(layers=total, busy_s=busy, tracks=tracks)

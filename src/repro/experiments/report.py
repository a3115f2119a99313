"""Result containers and plain-text rendering for regenerated figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(slots=True)
class Series:
    """One line of a figure: (x, y) points plus a label."""

    label: str
    xs: List[float]
    ys: List[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")


@dataclass(slots=True)
class FigureResult:
    """A regenerated table/figure, ready to print or serialize."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)
    #: what the paper reports for this figure, for EXPERIMENTS.md
    paper_claim: str = ""
    notes: str = ""

    def to_text(self) -> str:
        """Aligned plain-text table of every series."""
        lines = [f"== {self.fig_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        header = [self.xlabel] + [s.label for s in self.series]
        xs = self.series[0].xs if self.series else []
        rows = []
        for i, x in enumerate(xs):
            row = [f"{x:g}"]
            for s in self.series:
                row.append(f"{s.ys[i]:.1f}")
            rows.append(row)
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
            for c in range(len(header))
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_ascii_chart(self) -> str:
        """A terminal scatter/line chart of every series, 60 columns by
        12 rows.

        Y always starts at zero (throughput/latency charts mislead
        otherwise); series are marked with distinct glyphs.
        """
        if not self.series or not self.series[0].xs:
            return "(no data)"
        width, height = 60, 12
        glyphs = "*o+x#@"
        xs_all = [x for s in self.series for x in s.xs]
        ys_all = [y for s in self.series for y in s.ys]
        x_lo, x_hi = min(xs_all), max(xs_all)
        y_hi = max(ys_all) or 1.0
        span_x = (x_hi - x_lo) or 1.0
        grid = [[" "] * width for _ in range(height)]
        for si, series in enumerate(self.series):
            glyph = glyphs[si % len(glyphs)]
            for x, y in zip(series.xs, series.ys):
                col = int((x - x_lo) / span_x * (width - 1))
                row = (height - 1) - int(max(y, 0.0) / y_hi * (height - 1))
                grid[row][col] = glyph
        lines = [f"{self.title}  [{self.ylabel}; max={y_hi:g}]"]
        for row in grid:
            lines.append("|" + "".join(row))
        lines.append("+" + "-" * width)
        lines.append(
            f" {self.xlabel}: {x_lo:g} .. {x_hi:g}    "
            + "  ".join(
                f"{glyphs[i % len(glyphs)]}={s.label}"
                for i, s in enumerate(self.series)
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "fig_id": self.fig_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "paper_claim": self.paper_claim,
            "notes": self.notes,
            "series": [
                {"label": s.label, "xs": s.xs, "ys": s.ys} for s in self.series
            ],
        }

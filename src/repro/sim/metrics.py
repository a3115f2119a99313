"""Measurement helpers for simulated experiments.

The paper reports, per microbenchmark, the *average throughput* achieved
by concurrent clients each performing a set of operations. We record one
:class:`OpSample` per client operation and aggregate exactly that way:
per-client throughput is bytes moved over that client's wall time; the
reported figure is the mean over clients.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass(frozen=True, slots=True)
class OpSample:
    """One completed client operation."""

    client: str
    kind: str  # "append" | "read" | "write" | ...
    start: float
    end: float
    nbytes: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Bytes per second of this single operation.

        A zero-duration operation (possible in simulation when every
        modelled cost is zero) reports 0.0 rather than ``inf``: an
        infinity would poison every mean it enters downstream.
        """
        if self.duration <= 0:
            return 0.0
        return self.nbytes / self.duration


@dataclass(slots=True)
class Metrics:
    """Collects operation samples plus free-form counters."""

    samples: List[OpSample] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def record(
        self, client: str, kind: str, start: float, end: float, nbytes: int
    ) -> None:
        """Record one finished operation."""
        if end < start:
            raise ValueError("operation ends before it starts")
        self.samples.append(OpSample(client, kind, start, end, nbytes))

    def bump(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[name] += amount

    # -- aggregation ---------------------------------------------------------

    def of_kind(self, kind: str) -> List[OpSample]:
        """All samples of one operation kind."""
        return [s for s in self.samples if s.kind == kind]

    def per_client_throughput(self, kind: str) -> Dict[str, float]:
        """Each client's overall throughput for *kind*: total bytes over the
        client's busy span (first start to last end)."""
        spans: Dict[str, List[OpSample]] = defaultdict(list)
        for s in self.of_kind(kind):
            spans[s.client].append(s)
        out: Dict[str, float] = {}
        for client, ops in spans.items():
            start = min(o.start for o in ops)
            end = max(o.end for o in ops)
            total = sum(o.nbytes for o in ops)
            out[client] = total / (end - start) if end > start else 0.0
        return out

    def average_client_throughput(self, kind: str) -> float:
        """The paper's headline metric: mean per-client throughput (B/s)."""
        per = self.per_client_throughput(kind)
        if not per:
            return 0.0
        return float(np.mean(list(per.values())))

    def makespan(self, kind: str | None = None) -> float:
        """Wall time from the first start to the last end (optionally of
        one kind)."""
        ops = self.samples if kind is None else self.of_kind(kind)
        if not ops:
            return 0.0
        return max(o.end for o in ops) - min(o.start for o in ops)

"""Declarative fault plans and client retry policy.

A :class:`FaultPlan` is runtime-agnostic data: *what* crashes (a
component kind plus a target name), *when* (seconds after the plan is
started), for *how long* (``duration`` — ``None`` means forever), and
with what *probability*. The drivers in :mod:`repro.faults.inject` turn
a plan into DES events or wall-clock timer firings.

:class:`RetryPolicy` bundles the knobs the simulated clients use when a
fault plan is active: per-RPC timeout, capped exponential backoff
between retry sweeps, and a total attempt budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

#: component kinds a plan may target
COMPONENTS = ("provider", "datanode", "tasktracker")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault: crash *target* at *at*, optionally recover."""

    component: str
    target: str
    #: crash time, seconds after the plan starts
    at: float
    #: recover after this many seconds; ``None`` = crashed forever
    duration: Optional[float] = None
    #: chance this fault actually fires (materialized with a seeded rng)
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise ValueError(
                f"unknown component {self.component!r} (one of {COMPONENTS})"
            )
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive (or None)")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


class FaultPlan:
    """An ordered collection of :class:`FaultSpec`, with builder sugar."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)

    def crash(
        self,
        component: str,
        target: str,
        at: float,
        duration: Optional[float] = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Append a fault; returns self for chaining."""
        self.specs.append(
            FaultSpec(component, target, at, duration, probability)
        )
        return self

    def materialize(self, rng=None) -> List[FaultSpec]:
        """The faults that actually fire, probabilistic ones resolved.

        *rng* (a ``numpy.random.Generator``, e.g. from
        :func:`repro.common.rng.substream`) is required as soon as any
        spec has ``probability < 1`` — determinism is the caller's job.
        """
        out: List[FaultSpec] = []
        for spec in self.specs:
            if spec.probability >= 1.0:
                out.append(spec)
                continue
            if rng is None:
                raise ValueError(
                    "plan has probabilistic faults; pass a seeded rng"
                )
            if float(rng.random()) < spec.probability:
                out.append(spec)
        return out

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/backoff/attempt budget for clients under fault plans."""

    #: what one RPC to a crashed node costs before the client gives up on it
    rpc_timeout: float = 0.5
    #: first backoff delay between retry sweeps
    base_delay: float = 0.05
    #: backoff ceiling
    max_delay: float = 2.0
    #: total attempts (across replicas and sweeps) before the op fails
    max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, sweep: int) -> float:
        """Capped exponential delay before retry sweep *sweep* (0-based)."""
        return min(self.max_delay, self.base_delay * (2.0 ** sweep))

    @classmethod
    def from_cluster(cls, config) -> "RetryPolicy":
        """Build from a :class:`~repro.common.config.ClusterConfig`."""
        return cls(
            rpc_timeout=config.rpc_timeout,
            base_delay=config.rpc_retry_base,
            max_delay=config.rpc_retry_cap,
            max_attempts=config.rpc_max_attempts,
        )

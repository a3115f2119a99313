"""Wall-clock timing primitives for the perf floors.

Simulator wall-clock time is the binding constraint on scaling the
paper's sweeps (every figure is regenerated by the flow-level DES), so
this module measures it the same way every time: :func:`bench_figure`
runs one figure under a metrics-only :class:`~repro.obs.Observability`
(tracing off, histograms capped by a sampling reservoir so long sweeps
stay bounded) and reads the kernel/network instruments recorded by
:func:`~repro.experiments.deploy.record_sim_counters` back out
alongside the wall time; :func:`best_of` is the one best-of-N rule it
shares with :mod:`.kernelbench` and :mod:`.mdbench`.

Nothing here writes a document. The floors in ``benchmarks/perf/`` call
these functions and compare against ``baseline.json``; end-to-end and
per-layer numbers belong to the repo benchmark (``BENCHMARK.json`` +
``benchmarks/e2e/``). The simulated outputs are deterministic, so the
instrument counters are identical across repeats — which is why
``sim_events`` can be pinned exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from ..common.config import ExperimentConfig
from ..obs import Observability
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer

#: reservoir cap applied to bench-run histograms — bounds memory on
#: arbitrarily long sweeps at a ~3% percentile tolerance
BENCH_HIST_MAX_SAMPLES = 4096

R = TypeVar("R")


def best_of(run: Callable[[], R], repeats: int) -> R:
    """The fastest of *repeats* calls of *run*, by the result's
    ``wall_s`` — the minimum is the standard estimator for "how fast can
    this go", since background load only ever adds time."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return min((run() for _ in range(repeats)), key=lambda res: res.wall_s)


@dataclass(slots=True)
class FigureBench:
    """One figure's measurement."""

    figure: str
    wall_s: float
    sim_events: int
    events_per_s: float
    #: rate solves performed; only flow changes on a link that can
    #: saturate need one
    reallocs: int
    realloc_full: int
    #: mean flows solved per solve
    realloc_scope_mean: float
    #: end-of-timestep flushes that solved
    flushes: int = 0
    #: flow starts/finishes absorbed into those flushes — the coalescing
    #: win is ``coalesced_changes / flushes`` changes per reallocation
    coalesced_changes: int = 0
    #: every non-local flow start and finish, solved for or not
    flow_changes: int = 0
    #: what the figure returned (its :class:`~.report.FigureResult`)
    result: object = None


def _bench_obs() -> Observability:
    """Metrics-only observability with bounded histograms."""
    return Observability(
        tracer=Tracer(enabled=False),
        registry=MetricsRegistry(
            default_hist_max_samples=BENCH_HIST_MAX_SAMPLES
        ),
    )


def bench_figure(
    figure: str,
    scale: str = "quick",
    repeats: int = 3,
    config: Optional[ExperimentConfig] = None,
) -> FigureBench:
    """Measure one figure; best wall time of *repeats*. *config* is run
    as given (default: one repetition per point)."""
    from .figures import ALL_FIGURES

    if figure not in ALL_FIGURES or figure == "filecount":
        raise ValueError(f"not a DES-driven figure: {figure!r}")
    fn = ALL_FIGURES[figure]
    cfg = config if config is not None else ExperimentConfig(repetitions=1)

    def run_once() -> FigureBench:
        obs = _bench_obs()
        t0 = time.perf_counter()
        result = fn(scale=scale, config=cfg, obs=obs)
        wall = time.perf_counter() - t0
        reg = obs.registry
        sim_events = int(reg.value("sim.kernel.events"))
        scope = reg.histogram("sim.net.realloc_scope")
        return FigureBench(
            figure=figure,
            wall_s=wall,
            sim_events=sim_events,
            events_per_s=sim_events / wall if wall > 0 else 0.0,
            reallocs=int(reg.value("sim.net.reallocs")),
            realloc_full=int(reg.value("sim.net.realloc_full")),
            # a run with zero reallocations has no scope samples: 0.0,
            # not the NaN an empty mean would be
            realloc_scope_mean=scope.mean if scope.count else 0.0,
            flushes=int(reg.value("sim.net.flushes")),
            coalesced_changes=int(reg.value("sim.net.coalesced_changes")),
            flow_changes=int(reg.value("sim.net.flow_changes")),
            result=result,
        )

    return best_of(run_once, repeats)

"""The timing primitives behind the perf floors, the pinned fig3-fig7
and sup-writes event counts and series, and the rule that a derived
config drops no field."""

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.experiments import figures
from repro.experiments.bench import bench_figure, best_of
from repro.experiments.chaos import _chaos_config
from repro.experiments.microbench import _rep_config
from repro.experiments.openloop import _rack_config

#: kernel events each figure dispatches at quick scale. The DES is
#: deterministic, so a change here is a change in simulated behaviour —
#: an optimisation that claims to leave every simulated value alone must
#: leave these alone. fig8 (11 s) is pinned where it already runs:
#: benchmarks/perf/baseline.json.
SIM_EVENTS = {
    "fig3": 20_127,
    "fig4": 212_164,
    "fig5": 172_165,
    "fig6": 54_861,
    "fig7": 16_191,
    "sup-writes": 10_505,
}

#: each figure's quick-scale series, float for float: what the drivers
#: measure (fig3-5, fig7 and sup-writes time their own client ops; fig6
#: times its job) must not move with the simulation's event count fixed
SERIES = {
    "fig3": {
        "BSFS": [
            264.20402421870216, 212.8994407687848, 177.74457419028502,
            153.5181660992821, 134.38653157240933,
        ],
    },
    "fig4": {"BSFS": [194.62753934609682, 183.2724579421225, 177.42146520797192]},
    "fig5": {"BSFS": [218.66904887733872, 191.96944682362854, 173.24462609137015]},
    "fig6": {
        "HDFS - multiple output files": [
            661.6076889303525, 523.2764193636498, 509.4145731966687,
            509.22161785452903,
        ],
        "BSFS - single output file": [
            643.0772947280175, 521.4462599436799, 509.6193731966754,
            509.4976178545381,
        ],
    },
    "fig7": {
        "BSFS": [
            31.91702930642389, 30.980630978539512, 29.94641398716597,
            27.940168017994157,
        ],
    },
    "sup-writes": {
        "HDFS": [264.4223412394797, 186.96786293008762, 118.5065024267872],
        "BSFS": [264.20402421870216, 241.40611548976557, 207.6225426678009],
    },
}


@pytest.mark.parametrize("figure", sorted(SIM_EVENTS))
def test_sim_events_pinned(figure):
    fb = bench_figure(figure, scale="quick", repeats=1)
    assert fb.sim_events == SIM_EVENTS[figure], (
        f"{figure} dispatched {fb.sim_events:,} kernel events at quick "
        f"scale, pinned {SIM_EVENTS[figure]:,}: the simulation changed"
    )
    assert {s.label: s.ys for s in fb.result.series} == SERIES[figure]
    # the network instruments are wired: every flow start and finish is
    # counted, a solve happens only for the ones on a link that can
    # saturate, and same-instant ones coalesce into one flush
    assert fb.flow_changes > 0
    assert fb.reallocs <= fb.flushes <= fb.coalesced_changes <= fb.flow_changes
    if figure == "fig6":  # the shuffle saturates the reducers' NICs
        assert fb.reallocs > 0 and fb.realloc_scope_mean > 0.0


class TestBestOf:
    def test_returns_the_fastest_run(self):
        walls = iter([0.3, 0.1, 0.2])
        best = best_of(lambda: SimpleNamespace(wall_s=next(walls)), 3)
        assert best.wall_s == 0.1
        assert next(walls, None) is None  # ran exactly three times

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_rejects_no_runs(self, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            best_of(lambda: SimpleNamespace(wall_s=0.0), repeats)


@dataclass(slots=True)
class _FutureConfig(ExperimentConfig):
    """An ``ExperimentConfig`` one field ahead of today's: what a
    hand-copied ``ExperimentConfig(cluster=..., blobseer=..., ...)``
    rebuild silently loses."""

    journal: bool = False


def _unusual_config() -> _FutureConfig:
    return _FutureConfig(
        cluster=ClusterConfig(nodes=48, latency=0.0003),
        blobseer=BlobSeerConfig(replication=3, append_lease_s=5.0),
        hdfs=HDFSConfig(replication=2),
        repetitions=2,
        journal=True,
    )


def _bench_stub_figure(config, monkeypatch):
    """Run :func:`bench_figure` on a fig3 that simulates nothing;
    returns (the measurement, the config the figure was handed)."""
    seen = []
    monkeypatch.setitem(
        figures.ALL_FIGURES,
        "fig3",
        lambda scale, config, obs: seen.append(config),
    )
    fb = bench_figure("fig3", repeats=1, config=config)
    (cfg,) = seen
    return fb, cfg


def test_bench_figure_without_reallocations_reports_zero_not_nan(monkeypatch):
    fb, cfg = _bench_stub_figure(None, monkeypatch)
    assert fb.sim_events == 0 and fb.reallocs == 0
    assert fb.realloc_scope_mean == 0.0 and fb.events_per_s == 0.0
    assert cfg.repetitions == 1


@pytest.mark.parametrize(
    "derive, changes",
    [
        (lambda cfg, mp: _rep_config(cfg, 1), {"cluster"}),
        (lambda cfg, mp: _chaos_config(cfg), {"blobseer"}),
        (lambda cfg, mp: _rack_config(cfg), {"cluster", "blobseer"}),
        (lambda cfg, mp: _bench_stub_figure(cfg, mp)[1], set()),
    ],
    ids=["_rep_config", "_chaos_config", "_rack_config", "bench_figure"],
)
def test_derived_config_keeps_every_field_it_does_not_change(
    derive, changes, monkeypatch
):
    base = _unusual_config()
    derived = derive(base, monkeypatch)
    # a config that changes nothing is handed on as it is
    assert (derived is base) == (not changes) and type(derived) is type(base)
    for f in dataclasses.fields(base):
        if f.name in changes:
            assert getattr(derived, f.name) != getattr(base, f.name)
        else:
            assert getattr(derived, f.name) == getattr(base, f.name), f.name
    assert base == _unusual_config(), "the input config was mutated"

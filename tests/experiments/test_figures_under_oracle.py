"""Figures under the max-min oracle: every end-of-timestep flush of a
figure's network is checked against the from-scratch progressive-filling
recompute (``tests/maxmin.py``).

Figure 3 (concurrent appends) and Figure 6 (the data join) at quick
scale. Figure 6 is the only figure whose traffic reaches the solver —
its shuffle saturates the reducers' NICs — while every Figure 3 flow
runs at its bound on links that cannot saturate, which the oracle holds
to max-min just the same. The check only reads, so both figures keep
their pinned event counts and series under it.
"""

import pytest

from repro.experiments.bench import bench_figure
from repro.sim.network import Network
from tests.experiments.test_bench import SERIES, SIM_EVENTS
from tests.maxmin import install

#: rate solves each figure's network performs at quick scale
SOLVES = {"fig3": 0, "fig6": 69}


@pytest.mark.parametrize("figure", sorted(SOLVES))
def test_figure_rates_match_the_oracle(figure, monkeypatch):
    checked = []
    real_init = Network.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        checked.append(install(self))

    monkeypatch.setattr(Network, "__init__", init)
    fb = bench_figure(figure, repeats=1)
    assert checked and all(c.flushes > 0 for c in checked)
    assert fb.reallocs == SOLVES[figure]
    assert fb.sim_events == SIM_EVENTS[figure]
    assert {s.label: s.ys for s in fb.result.series} == SERIES[figure]

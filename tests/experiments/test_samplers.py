"""The DES telemetry samplers read what a full scan would.

``sim.disk.queue_max`` is the deepest spindle queue across the cluster.
The sampler reads it from the tally the spindles' queues
(:class:`~repro.sim.resources.TalliedQueue`) keep as they grow and
shrink, instead of scanning every node's queue per tick; these tests
hold it to that scan.
"""

import random

import pytest

from repro.common.config import ExperimentConfig
from repro.experiments import deploy
from repro.experiments.figures import ALL_FIGURES
from repro.obs import Observability
from repro.sim.core import Environment
from repro.sim.resources import Resource, TalliedQueue


@pytest.mark.parametrize("figure", ["fig3", "fig5"])
def test_disk_queue_series_equals_full_scan(figure, monkeypatch):
    """Every ``sim.disk.queue_max`` point of a quick run equals the
    maximum of ``len`` over every spindle queue at that tick. fig3's
    spindles never queue; fig5's readers queue on them."""
    obs = Observability.on()
    series = obs.registry.timeseries("sim.disk.queue_max")
    spindles = []  # per deployment, its spindle queues
    ticks = []  # (recorded point, full scan), one per sampler tick

    def tallied(tally):
        if not spindles or spindles[-1][0] is not tally:
            spindles.append((tally, []))
        spindles[-1][1].append(TalliedQueue(tally))
        return spindles[-1][1][-1]

    real_every = Environment.every

    def every(self, period, fn, double_after):
        _, queues = spindles[-1]  # the deployment this sampler belongs to

        def sampled():
            fn()
            ticks.append((series.last, max(map(len, queues))))

        real_every(self, period, sampled, double_after)

    monkeypatch.setattr(deploy, "TalliedQueue", tallied)
    monkeypatch.setattr(Environment, "every", every)
    ALL_FIGURES[figure](scale="quick", config=ExperimentConfig(repetitions=1), obs=obs)
    assert len(spindles) > 1 and all(len(q) > 100 for _, q in spindles)
    assert len(ticks) > 100
    assert [point for point, _ in ticks] == [scan for _, scan in ticks]
    deepest = max(scan for _, scan in ticks)
    assert deepest == 0 if figure == "fig3" else deepest > 1


def test_tally_tracks_every_change():
    """Random queueing and admission over four resources: the deepest
    queue equals the scan after every change."""
    env = Environment()
    resources = [Resource(env) for _ in range(4)]
    tally = [0]
    for r in resources:
        r._waiting = TalliedQueue(tally)
        r.request()  # every slot busy
    assert tally == [4]
    rng = random.Random(7)
    readings = []
    for _ in range(300):
        r = rng.choice(resources)
        if r._waiting and rng.random() < 0.5:
            r.release(r.holder)  # admits the next waiter
        else:
            r.request()
        readings.append((len(tally) - 1, max(len(x._waiting) for x in resources)))
    assert all(fast == scan for fast, scan in readings)
    assert max(fast for fast, _ in readings) > 3
    assert sum(tally) == 4

"""Tests for the open-loop arrival processes (fig8's schedules)."""

import numpy as np
import pytest

from repro.workloads.generators import ArrivalProcess, poisson_arrivals


class TestArrivalProcess:
    def test_iterates_time_client_pairs(self):
        ap = ArrivalProcess(
            times=np.array([0.0, 1.0, 2.5]),
            clients=np.array([2, 0, 1], dtype=np.int64),
        )
        assert list(ap) == [(0.0, 2), (1.0, 0), (2.5, 1)]
        assert len(ap) == 3
        assert ap.distinct_clients == 3
        assert ap.duration == 2.5
        assert ap.offered_load() == pytest.approx(3 / 2.5)

    def test_empty_schedule(self):
        ap = ArrivalProcess(
            times=np.array([], dtype=np.float64),
            clients=np.array([], dtype=np.int64),
        )
        assert len(ap) == 0
        assert ap.distinct_clients == 0
        assert ap.duration == 0.0
        assert ap.offered_load() == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ArrivalProcess(
                times=np.array([0.0, 1.0]), clients=np.array([1])
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalProcess(
                times=np.array([-0.1, 1.0]), clients=np.array([0, 1])
            )

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ArrivalProcess(
                times=np.array([1.0, 0.5]), clients=np.array([0, 1])
            )


class TestPoissonArrivals:
    def test_seeded_determinism(self):
        a = poisson_arrivals(100.0, 5.0, 50, seed=7)
        b = poisson_arrivals(100.0, 5.0, 50, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.clients, b.clients)
        c = poisson_arrivals(100.0, 5.0, 50, seed=8)
        assert not np.array_equal(a.times, c.times)

    def test_mean_interarrival_close_to_rate(self):
        rate = 1000.0
        ap = poisson_arrivals(rate, 20.0, 100, seed=3)
        gaps = np.diff(ap.times)
        # ~20k exponential samples: the sample mean sits within a few
        # percent of 1/rate with overwhelming probability
        assert float(gaps.mean()) == pytest.approx(1.0 / rate, rel=0.05)
        # count close to rate * duration as well
        assert len(ap) == pytest.approx(rate * 20.0, rel=0.05)

    def test_times_sorted_and_truncated(self):
        ap = poisson_arrivals(200.0, 3.0, 10, seed=1)
        assert np.all(np.diff(ap.times) >= 0.0)
        assert float(ap.times[0]) >= 0.0
        assert float(ap.times[-1]) < 3.0

    def test_touches_every_client_when_enough_arrivals(self):
        ap = poisson_arrivals(500.0, 4.0, 1000, seed=2)
        assert len(ap) >= 1000
        assert ap.distinct_clients == 1000

    def test_few_arrivals_all_distinct(self):
        ap = poisson_arrivals(10.0, 1.0, 10_000, seed=2)
        # fewer arrivals than clients: each op gets its own client
        assert ap.distinct_clients == len(ap)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 1.0, 0)

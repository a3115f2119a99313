"""The retry policy every engine carries: capped exponential backoff
between retry sweeps, and its validation."""

import pytest

from repro.engine.base import RetryPolicy


class TestRetryPolicy:
    def test_backoff_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(rpc_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

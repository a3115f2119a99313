"""The HTTP load harness, self-serve mode: small but real — sockets,
concurrent clients, and the graceful-stop timer-drain assertion all on
the measured path."""

import json

from repro.experiments.loadtest import run_loadtest
from repro.obs import Observability


class TestLoadTest:
    def test_self_serve_roundtrip_zero_failures(self):
        obs = Observability.on()
        result = run_loadtest(
            clients=10,
            duration_s=0.5,
            op_bytes=512,
            n_files=4,
            n_providers=4,
            obs=obs,
        )
        assert result.failed == 0, result.statuses
        assert result.completed > 0
        assert result.goodput_ops_s > 0
        # percentile ordering and sanity
        assert 0 < result.p50_s <= result.p95_s <= result.p99_s <= result.max_s
        assert result.bytes_appended == result.completed * 512
        assert result.statuses == {"200": result.completed}
        # client-side latencies also landed in the shared registry
        assert obs.registry.histogram("loadtest.append_s").count == (
            result.completed
        )

    def test_result_document_is_json_clean(self):
        result = run_loadtest(
            clients=4, duration_s=0.3, op_bytes=256, n_files=2, n_providers=2
        )
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["clients"] == 4
        assert set(doc["latency_s"]) == {"p50", "p95", "p99", "mean", "max"}
        for v in doc["latency_s"].values():
            assert v == v  # no NaN anywhere
        assert "failed" in doc and doc["failed"] == 0

    def test_text_rendering(self):
        result = run_loadtest(
            clients=2, duration_s=0.2, op_bytes=128, n_files=1, n_providers=2
        )
        text = result.to_text()
        assert "clients" in text and "p99" in text

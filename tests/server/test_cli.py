"""Process-level exit behavior of the CLIs, via real subprocesses.

The contracts under test: ``repro-serve`` exits 0 on SIGINT/SIGTERM
after a graceful drain; ``repro-fig`` exits 2 on a bad figure name and
130 with a clean one-line notice (no traceback) on Ctrl-C;
``repro-loadtest`` exits 0 on a clean run and non-zero when it cannot
reach a server.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def run(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", *args],
        env=ENV,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
        **kw,
    )


class TestServeSignals:
    def _spawn_and_signal(self, sig):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli", "--port", "0",
             "--providers", "2"],
            env=ENV,
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()  # blocks until the server is up
            assert "listening on http://" in line
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            raise
        return proc.returncode, line + out, err

    def test_sigint_exits_zero_after_graceful_drain(self):
        code, _out, err = self._spawn_and_signal(signal.SIGINT)
        assert code == 0, err
        assert "shutting down" in err
        assert "Traceback" not in err

    def test_sigterm_exits_zero(self):
        code, _out, err = self._spawn_and_signal(signal.SIGTERM)
        assert code == 0, err
        assert "Traceback" not in err


class TestServeMetrics:
    def test_metrics_carry_the_collectors_share(self):
        import http.client
        import json

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli", "--port", "0",
             "--providers", "2"],
            env=ENV,
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            host, _, port = line.rsplit("http://", 1)[1].strip().partition(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            conn.request("GET", "/metrics")
            doc = json.loads(conn.getresponse().read())
            conn.close()
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0
        for gen in range(3):
            assert f"runtime.gc.collections.gen{gen}" in doc["counters"]
        assert "runtime.gc.pause_s" in doc["histograms"]


class TestFigExit:
    def test_bad_figure_name_exits_2_with_usage(self):
        result = run(["repro.experiments.cli", "fig99"])
        assert result.returncode == 2
        assert "invalid choice" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sigint_exits_130_without_traceback(self):
        # high --reps pins the run well past the signal's arrival
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "all",
             "--scale", "paper", "--reps", "200"],
            env=ENV,
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            time.sleep(1.5)  # let it get into the sweep
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 130
        assert "interrupted" in err
        assert "Traceback" not in err


class TestLoadtestExit:
    def test_unreachable_server_exits_nonzero(self):
        result = run(
            ["repro.experiments.loadtest", "--url", "127.0.0.1:9",
             "--clients", "1", "--duration", "0.2"]
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stderr

    def test_bad_url_exits_2(self):
        result = run(["repro.experiments.loadtest", "--url", "nonsense"])
        assert result.returncode == 2

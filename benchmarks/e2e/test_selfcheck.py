"""Self-check of the benchmark harness, at smoke scale (about 30 s).

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e/test_selfcheck.py``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]

#: per-layer metrics that must be non-zero on the workload they explain
EXPECTED = {
    "http_append_small": [
        "server.self_us_per_op", "engine.aio.self_us_per_op",
        "blobseer.version_manager.busy_us_per_op",
        "blobseer.metadata.build_us_per_op", "blobseer.metadata.node_puts_per_op",
        "bsfs.namespace.us_per_op", "e2e.append_p99_ms", "e2e.server_cpu_us_per_op",
    ],
    "lib_rw_large": [
        "engine.threaded.self_us_per_op", "blobseer.provider.put_us_per_op",
        "blobseer.provider.get_us_per_op", "blobseer.metadata.query_us_per_op",
        "blobseer.metadata.node_gets_per_op", "bsfs.cache.hit_ratio",
        "e2e.read_p50_ms", "e2e.stored_bytes_per_user_byte",
    ],
    "sim_figs": ["sim.core.host_s", "sim.network.host_s", "sim.core.events"],
    "sim_openloop": [
        "sim.core.host_s", "blobseer.version_manager.host_s",
        "blobseer.version_manager.group_commit_mean_size",
        "e2e.sim_plateau_ops_s", "e2e.sim_p99_ms_at_1000",
    ],
}


def bench(*args, cwd=ROOT, script=HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = bench("run", "--scale", "smoke", "--repeats", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text())


def test_document_names_what_the_contract_names(doc):
    _, d = doc
    assert list(d["workloads"]) == WORKLOADS
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload, entry in d["workloads"].items():
        assert list(entry["end_to_end"]) == END_TO_END
        assert list(entry["per_layer"]) == PER_LAYER
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1
        for name, m in entry["end_to_end"].items():
            assert all(v > 0 for v in m["values"]), (workload, name)
            assert m["q1"] <= m["median"] <= m["q3"]
        for name in EXPECTED[workload]:
            assert entry["per_layer"][name]["value"] > 0, (workload, name)
    fp = d["fingerprint"]
    assert fp["nproc"] >= 1 and fp["python"] and len(fp["loadavg_at_start"]) == 3


def test_live_layers_reconstruct_the_mean_latency(doc):
    _, d = doc
    for workload in ("http_append_small", "lib_rw_large"):
        layers = {k: v["value"] for k, v in d["workloads"][workload]["per_layer"].items()}
        mean = layers["trace.mean_latency_us"]
        attributed = sum(
            v for k, v in layers.items()
            if k.endswith("us_per_op") and not k.startswith("e2e.")
        )
        rebuilt = attributed + layers["trace.unattributed_share"] * mean
        assert rebuilt == pytest.approx(mean, rel=1e-6), workload
        assert -0.01 <= layers["trace.unattributed_share"] <= 0.15, workload
        assert layers["trace.overhead_ratio"] > 0


def test_des_layers_sum_to_the_profiled_wall(doc):
    _, d = doc
    for workload in ("sim_figs", "sim_openloop"):
        layers = {k: v["value"] for k, v in d["workloads"][workload]["per_layer"].items()}
        total = sum(v for k, v in layers.items() if k.endswith(".host_s"))
        # cProfile's own bookkeeping between timestamps belongs to no
        # function: 1-3% of the wall at full scale
        assert total == pytest.approx(layers["trace.profiled_wall_s"], rel=0.05), workload
        assert layers["trace.profile_overhead_ratio"] > 1


def test_layers_appear_only_where_they_run(doc):
    _, d = doc
    http = d["workloads"]["http_append_small"]["per_layer"]
    lib = d["workloads"]["lib_rw_large"]["per_layer"]
    assert lib["server.self_us_per_op"]["value"] == 0
    assert lib["engine.aio.self_us_per_op"]["value"] == 0
    assert http["engine.threaded.self_us_per_op"]["value"] == 0
    for sim in ("sim_figs", "sim_openloop"):
        assert d["workloads"][sim]["per_layer"]["trace.mean_latency_us"]["value"] == 0


def test_compare_accepts_a_document_against_itself(doc):
    out, _ = doc
    proc = bench("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout
    assert len(proc.stdout.splitlines()) == 1 + len(WORKLOADS) * len(END_TO_END)


def test_compare_flags_a_slower_run(doc, tmp_path):
    out, d = doc
    for entry in d["workloads"].values():
        m = entry["end_to_end"]["peak_rss_mib"]
        m.update(median=m["median"] * 2, q1=m["q1"] * 2, q3=m["q3"] * 2)
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(d))
    proc = bench("compare", str(out), str(slower))
    assert proc.returncode == 1
    assert proc.stdout.count("worse") == len(WORKLOADS)


@pytest.fixture()
def checkout(tmp_path):
    """BENCHMARK.json and benchmarks/e2e only, as the driver's bare
    directory holds them."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    return tmp_path


def single(checkout, workload, trace):
    return bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
        cwd=checkout, script=checkout / "benchmarks" / "e2e" / "bench.py",
    )


def test_single_run_prints_the_contract_line(checkout):
    (checkout / "src").symlink_to(ROOT / "src")
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        proc = single(checkout, "sim_figs", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(sorted(m) == ["unit", "value"] for m in result["metrics"].values())


def test_a_corrupted_golden_fails_the_run(checkout):
    (checkout / "src").symlink_to(ROOT / "src")
    golden = checkout / "benchmarks" / "e2e" / "golden.json"
    series = json.loads(golden.read_text())
    series["fig3:quick"]["BSFS"][2] *= 1.0 + 1e-6
    golden.write_text(json.dumps(series))
    proc = single(checkout, "sim_figs", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_without_the_program_there_is_no_result(checkout):
    proc = single(checkout, "sim_figs", 0)
    assert proc.returncode not in (0, None)
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

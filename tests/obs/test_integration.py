"""End-to-end observability: spans and metrics flow out of real runs."""

import json

import pytest

from repro.bsfs import BSFS
from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
)
from repro.common.units import MiB
from repro.experiments.cli import main as cli_main
from repro.experiments.microbench import concurrent_appends
from repro.mapreduce import MapReduceCluster
from repro.mapreduce.job import JobConf
from repro.obs import Observability


def _small_config():
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=60),
        blobseer=BlobSeerConfig(page_size=16 * MiB, metadata_providers=4),
        repetitions=1,
    )


def spans_of(tracer, cat):
    """Finished spans of one category."""
    return [s for s in tracer.finished() if s.cat == cat]


def test_simulated_append_run_traces_all_layers():
    obs = Observability.on()
    concurrent_appends([4], _small_config(), obs=obs)
    cats = {s.cat for s in obs.tracer.snapshot()}
    # at least the FS, BLOB and version-manager layers must appear
    assert {"bsfs", "blobseer", "blobseer.vm"} <= cats
    # every span carries simulated (not wall-clock) timestamps
    assert all(s.end is not None and s.end < 1e4 for s in obs.tracer.finished())
    # the append path's registry trail
    counters = obs.registry.counters()
    assert counters["vm.append_tickets"] == 4.0
    assert counters["vm.commits"] == 4.0
    ticket_bytes = obs.registry.histogram("vm.append_ticket_bytes")
    assert ticket_bytes.count == 4
    assert ticket_bytes.percentile(50) == 64 * MiB
    # spans nest: some blobseer.vm span has a parent
    assert any(
        s.parent_id is not None for s in spans_of(obs.tracer, "blobseer.vm")
    )


def test_threaded_cache_counters_reach_registry_and_metrics():
    obs = Observability.on()
    dep = BSFS(
        config=BlobSeerConfig(page_size=4096, metadata_providers=2),
        n_providers=4,
        obs=obs,
    )
    fs = dep.file_system("client-0")
    out = fs.create("/f")
    for _ in range(10):
        out.write(b"x" * 1000)  # small records, write-behind batches them
    out.close()
    stream = fs.open("/f")
    for _ in range(5):
        stream.pread(0, 100)  # one miss, then hits
    stream.close()
    counters = obs.registry.counters()
    assert counters["bsfs.cache.hits"] == 4.0
    assert counters["bsfs.cache.misses"] == 1.0
    assert counters["bsfs.writebehind.flushes"] >= 3.0  # 10_000 / 4096 blocks
    # the streams pushed their totals into the deployment's counters
    assert dep.metrics.counters["bsfs.cache.hits"] == 4.0
    assert dep.metrics.counters["bsfs.cache.misses"] == 1.0
    assert dep.metrics.counters["bsfs.writebehind.flushes"] >= 3.0
    # and the tracer saw the threaded read/append spans
    assert {"bsfs", "blobseer"} <= {s.cat for s in obs.tracer.snapshot()}


def test_mapreduce_job_emits_spans_and_locality_counters():
    obs = Observability.on()
    dep = BSFS(
        config=BlobSeerConfig(page_size=4096, metadata_providers=2),
        n_providers=4,
        obs=obs,
    )
    fs = dep.file_system()
    fs.write_all("/in/a", b"".join(b"k%02d\tv\n" % (i % 7) for i in range(50)))

    def map_fn(key, value, ctx):
        ctx.emit(key, 1)

    def reduce_fn(key, values, ctx):
        ctx.emit(key, sum(values))

    mr = MapReduceCluster(
        fs, hosts=[f"provider-{i:03d}" for i in range(4)], obs=obs
    )
    mr.run_job(
        JobConf(
            name="count",
            input_paths=["/in/a"],
            output_dir="/out",
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            n_reducers=2,
        )
    )
    names = {s.name for s in spans_of(obs.tracer, "mapreduce")}
    assert {"mr.job", "mr.map_task", "mr.reduce_task", "mr.shuffle_fetch"} <= names
    counters = obs.registry.counters()
    assert counters["mr.maps_local"] + counters["mr.maps_remote"] >= 1.0
    assert counters["mr.shuffle.pairs_fetched"] >= 1.0
    # task spans run on their tasktracker's track
    tracks = {s.track for s in spans_of(obs.tracer, "mapreduce")}
    assert any(t.startswith("provider-") for t in tracks)


@pytest.fixture()
def tiny_fig3(monkeypatch):
    """``repro-fig fig3`` on a tiny deployment: the 270-node quick run is
    replaced by :func:`_small_config`."""
    import repro.experiments.figures as figures

    orig_fig3 = figures.fig3

    def tiny(scale="quick", config=None, obs=None):
        return orig_fig3(scale=scale, config=_small_config(), obs=obs)

    monkeypatch.setitem(figures.ALL_FIGURES, "fig3", tiny)


def test_cli_trace_and_report(tmp_path, capsys, tiny_fig3):
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    rc = cli_main(
        ["fig3", "--trace", str(trace_path), "--report", str(report_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # one readout, printed once, with the derived lines
    assert out.count("== run report: fig3 ==") == 1
    assert out.count("cache hit-rate") == 1
    assert "vm.append_ticket_bytes" in out

    doc = json.loads(trace_path.read_text())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs, "trace must contain complete events"
    cats = {e["cat"] for e in xs}
    assert len(cats & {"bsfs", "bsfs.ns", "blobseer", "blobseer.vm",
                       "blobseer.md", "blobseer.data"}) >= 3

    report = json.loads(report_path.read_text())
    assert "vm.append_ticket_bytes" in report["histograms"]
    assert report["gauges"]


def test_cli_trace_alone_prints_the_report(tmp_path, capsys, tiny_fig3):
    assert cli_main(["fig3", "--trace", str(tmp_path / "t.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("== run report: fig3 ==") == 1
    assert not list(tmp_path.glob("*report*"))

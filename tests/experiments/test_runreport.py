"""Run-report acceptance: the ISSUE's headline numbers, on small runs.

The critical-path walker must attribute >= 95% of a traced fig3-style
run's busy time to named layers (it partitions by construction, so the
real check is that the layers are the *expected* ones and non-trivial),
and a chaos run's report must carry the fault timeline — crash
injections and lease expiries as timestamped instants.
"""

import json
from dataclasses import replace

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
)
from repro.common.units import MiB
from repro.experiments.chaos import chaos_appends
from repro.experiments.cli import main as cli_main
from repro.experiments.microbench import appends_under_reads, concurrent_appends
from repro.experiments.runreport import (
    build_report,
    fault_timeline,
    report_text,
    write_report,
)
from repro.obs import Observability
from repro.obs.events import FAULT_CRASH, LEASE_EXPIRED


def _small_config(reps=1):
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=60),
        blobseer=BlobSeerConfig(page_size=16 * MiB, metadata_providers=4),
        repetitions=reps,
    )


@pytest.fixture(scope="module")
def fig3_report():
    obs = Observability.on()
    concurrent_appends([4], _small_config(), obs=obs)
    return build_report(obs, figure="fig3")


@pytest.fixture(scope="module")
def fig5_report():
    """A fig5-shaped run: 24 readers beside 4 appenders, enough for
    reads to queue on the spindles (fig3's appends never do)."""
    obs = Observability.on()
    appends_under_reads(
        [24],
        _small_config(),
        n_appenders=4,
        chunks_per_reader=2,
        chunks_per_appender=2,
        obs=obs,
    )
    return build_report(obs, figure="fig5")


@pytest.fixture(scope="module")
def chaos_report():
    cfg = _small_config()
    cfg.cluster = replace(cfg.cluster, nodes=40, seed=1234)
    obs = Observability.on()
    chaos_appends(
        [8], cfg, provider_crashes=2, appender_crashes=1, obs=obs
    )
    return build_report(obs, figure="fig7"), obs


class TestCriticalPathAcceptance:
    def test_attributes_at_least_95_percent(self, fig3_report):
        cp = fig3_report["critical_path"]
        assert cp["busy_s"] > 0
        assert cp["attributed_fraction"] >= 0.95

    def test_expected_layers_carry_the_time(self, fig3_report):
        layers = fig3_report["critical_path"]["layers"]
        # the append path exercises data transfer, the serialized
        # version-manager turn, and control RPCs
        assert layers.get("network", 0.0) > 0.0
        assert layers.get("turn_wait", 0.0) > 0.0
        assert layers.get("rpc", 0.0) > 0.0
        # nothing pathological: no single bookkeeping layer eats the run
        busy = fig3_report["critical_path"]["busy_s"]
        assert sum(layers.values()) == pytest.approx(busy, rel=0.05)

    def test_per_track_breakdown_covers_the_clients(self, fig3_report):
        tracks = fig3_report["critical_path"]["tracks"]
        assert len(tracks) >= 4  # one per appender (plus any extras)
        for t in tracks:
            assert t["busy_s"] >= 0.0
            assert isinstance(t["layers"], dict)


class TestReportDocument:
    def test_histograms_and_counters_present(self, fig3_report):
        hist = fig3_report["histograms"]
        assert "vm.append_ticket_bytes" in hist
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            assert key in hist["vm.append_ticket_bytes"]
        assert fig3_report["counters"]["vm.commits"] == 4.0

    def test_timeseries_sampled_during_the_run(self, fig3_report):
        series = fig3_report["timeseries"]
        assert "sim.net.aggregate_rate_bps" in series
        assert "sim.disk.queue_max" in series
        assert "vm.commit_queue_len" in series
        assert series["sim.net.aggregate_rate_bps"]["count"] > 0
        assert series["sim.net.aggregate_rate_bps"]["max"] > 0.0

    def test_disk_queue_series_sees_spindles_queue(self, fig5_report):
        queue = fig5_report["timeseries"]["sim.disk.queue_max"]
        assert queue["count"] > 0
        assert queue["max"] >= 1

    def test_span_accounting(self, fig3_report):
        spans = fig3_report["spans"]
        assert spans["total"] > 0
        assert spans["unfinished"] == 0

    def test_json_round_trip(self, fig3_report, tmp_path):
        path = tmp_path / "report.json"
        write_report(fig3_report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(fig3_report)
        )


class TestFaultTimeline:
    def test_chaos_report_shows_crashes_and_lease_expiry(self, chaos_report):
        doc, _obs = chaos_report
        events = [e["event"] for e in doc["faults"]]
        assert events.count(FAULT_CRASH) >= 2
        assert LEASE_EXPIRED in events
        # time-ordered, with sim timestamps
        ts = [e["t"] for e in doc["faults"]]
        assert ts == sorted(ts)
        crash = next(e for e in doc["faults"] if e["event"] == FAULT_CRASH)
        assert crash["component"] == "provider"
        assert crash["target"].startswith("node-")

    def test_fault_timeline_matches_tracer(self, chaos_report):
        doc, obs = chaos_report
        assert doc["faults"] == fault_timeline(obs.tracer)

    def test_fault_free_run_has_empty_timeline(self, fig3_report):
        assert fig3_report["faults"] == []


class TestReportText:
    def test_sections_render(self, fig3_report):
        text = report_text(fig3_report)
        assert "== run report: fig3 ==" in text
        assert "critical path" in text
        assert "% attributed" in text
        assert "network" in text
        flows = fig3_report["counters"]["sim.net.flow_changes"]
        assert flows > 0
        assert f"network flows: {flows:g} starts and finishes, " in text
        assert "latency percentiles:" in text
        assert "vm.append_ticket_bytes" in text
        assert "counters:" in text
        assert "time series:" in text
        assert "fault timeline:" not in text  # fault-free run
        assert "0 unfinished" in text

    def test_fault_lines_render(self, chaos_report):
        doc, _obs = chaos_report
        text = report_text(doc)
        assert "fault timeline:" in text
        assert FAULT_CRASH in text
        assert LEASE_EXPIRED in text


def printed_once(text, names):
    """Names that are not the first cell of exactly one line of *text*."""
    firsts = [line.split(" ", 1)[0] for line in text.splitlines()]
    return [n for n in names if firsts.count(n) != 1]


class TestReadout:
    """The report is the one terminal readout: counters, gauges,
    histogram percentiles and the derived lines."""

    def test_counters_gauges_histograms_and_hit_rate(self):
        obs = Observability.on()
        outer = obs.tracer.start("bsfs.append", cat="bsfs", track="client-0")
        obs.tracer.start("vm.assign", cat="blobseer.vm", parent=outer).finish()
        outer.finish()
        reg = obs.registry
        reg.counter("bsfs.cache.hits").inc(3)
        reg.counter("bsfs.cache.misses").inc(1)
        reg.gauge("vm.turn_queue_depth").set(7)
        h = reg.histogram("vm.append_ticket_wait_s")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)

        text = report_text(build_report(obs))
        assert "cache hit-rate: 75.0% (3 hits / 1 misses)" in text
        assert "gauges:" in text
        assert ["vm.turn_queue_depth", "7"] in [
            line.split() for line in text.splitlines()
        ]
        assert "vm.append_ticket_wait_s" in text
        for col in ("count", "mean", "p50", "p95", "p99", "max"):
            assert col in text
        assert "2 total, 0 unfinished" in text
        assert not printed_once(
            text,
            ["bsfs.cache.hits", "bsfs.cache.misses", "vm.turn_queue_depth",
             "vm.append_ticket_wait_s"],
        )

    def test_no_traffic(self):
        text = report_text(build_report(Observability.on()))
        assert "cache hit-rate: n/a (no cache traffic)" in text
        for absent in ("counters:", "gauges:", "latency percentiles:",
                       "map locality", "fault timeline:"):
            assert absent not in text
        assert "spans: 0 total, 0 unfinished" in text

    def test_map_locality_line(self):
        obs = Observability.on()
        obs.registry.counter("mr.maps_local").inc(3)
        obs.registry.counter("mr.maps_remote").inc(1)
        text = report_text(build_report(obs))
        assert "map locality: 75.0% (3 of 4 map attempts data-local)" in text

    def test_figure_run_prints_every_counter_and_gauge_once(self, fig3_report):
        assert fig3_report["gauges"], "the DES run sets gauges"
        text = report_text(fig3_report)
        assert not printed_once(
            text, [*fig3_report["counters"], *fig3_report["gauges"]]
        )


def test_cli_report_flag_writes_json(tmp_path, capsys, monkeypatch):
    report_path = tmp_path / "report.json"
    import repro.experiments.figures as figures

    orig_fig3 = figures.fig3

    def tiny_fig3(scale="quick", config=None, obs=None):
        return orig_fig3(scale=scale, config=_small_config(), obs=obs)

    monkeypatch.setitem(figures.ALL_FIGURES, "fig3", tiny_fig3)
    rc = cli_main(["fig3", "--report", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== run report: fig3 ==" in out
    assert f"wrote {report_path}" in out

    doc = json.loads(report_path.read_text())
    assert doc["figure"] == "fig3"
    assert doc["critical_path"]["attributed_fraction"] >= 0.95
    assert doc["spans"]["total"] > 0
    # the collector's share of the run is a row of the report: every
    # deployment is preceded by one full collection
    assert doc["counters"]["runtime.gc.collections.gen2"] >= 1
    assert doc["histograms"]["runtime.gc.pause_s"]["count"] >= 1
    assert "runtime.gc.pause_s" in out
    # one readout: every counter and gauge is printed exactly once
    assert out.count("== run report") == 1
    assert "gauges:" in out
    assert not printed_once(out, [*doc["counters"], *doc["gauges"]])

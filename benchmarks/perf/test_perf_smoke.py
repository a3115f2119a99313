"""Perf smoke test — the CI gate on simulator throughput.

Runs a reduced sweep through :func:`~repro.experiments.bench.bench_figure`
for every figure listed in the committed baseline (Figure 3, the
concurrent-append tentpole workload; Figure 6, the data-join shuffle
whose same-instant flow churn the coalesced reallocation batches; and
Figure 8, the open-loop scale sweep) and fails if simulated events/sec
regresses more than 30% against the committed floor, if the number of
kernel events a figure dispatches differs from the pinned count (the
simulation changed — fig3-fig7 are pinned in tier-1 too, fig8 only
here). The kernel microbench scenarios
(:mod:`repro.experiments.kernelbench` — raw dispatch throughput with no
workload) and the metadata microbench scenarios
(:mod:`repro.experiments.mdbench` — in-process segment-tree algebra
throughput) are gated the same way. Four gates are ceilings rather
than speed floors: the bytes a live append leaves behind besides its
payload (tree nodes, their keys, the DHT's buckets), the objects it
leaves on the cyclic collector's lists, the full collections a
fig8 run performs inside the kernel's dispatch loop (none: the kernel
pauses the collector, DESIGN.md "Memory and the collector"), and the
rate solves a fig8 run performs (none: no link of its fabric can
saturate, DESIGN.md "Only links that can bind").

Not part of the tier-1 suite (pyproject collects ``tests/`` only); CI
runs it as a separate perf-smoke job::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import asyncio
import gc
import json
import pathlib
import tracemalloc

import pytest

from repro.experiments.bench import bench_figure

BASELINE_PATH = pathlib.Path(__file__).with_name("baseline.json")

#: a run is a regression when events/sec drops below this share of the
#: committed baseline
REGRESSION_FLOOR = 0.70

with BASELINE_PATH.open() as _fp:
    _BASELINE = json.load(_fp)


@pytest.fixture(scope="module")
def baseline():
    return _BASELINE


@pytest.mark.parametrize("figure", sorted(_BASELINE["figures"]))
def test_events_per_s_vs_baseline(baseline, figure):
    fb = bench_figure(figure, scale=baseline["scale"], repeats=2)
    assert fb.flow_changes > 0, "instruments not wired"
    assert fb.reallocs <= fb.flow_changes
    pinned = baseline["figures"][figure]["sim_events"]
    assert fb.sim_events == pinned, (
        f"{figure} dispatched {fb.sim_events:,} kernel events at "
        f"{baseline['scale']} scale, pinned {pinned:,}: the simulation "
        f"changed (a host-speed change never moves this count)"
    )
    floor = REGRESSION_FLOOR * baseline["figures"][figure]["events_per_s"]
    assert fb.events_per_s >= floor, (
        f"{figure} simulator throughput regressed: "
        f"{fb.events_per_s:,.0f} events/s < {floor:,.0f} "
        f"(= {REGRESSION_FLOOR:.0%} of baseline "
        f"{baseline['figures'][figure]['events_per_s']:,.0f}); if the "
        f"hardware class changed, re-baseline benchmarks/perf/baseline.json"
    )


@pytest.mark.parametrize("scenario", sorted(_BASELINE.get("kernel", {})))
def test_kernel_microbench_vs_baseline(baseline, scenario):
    from repro.experiments.kernelbench import bench_kernel

    kb = bench_kernel(scenario, repeats=2)
    assert kb.events > 0, "kernel bench dispatched nothing"
    floor = REGRESSION_FLOOR * baseline["kernel"][scenario]["events_per_s"]
    assert kb.events_per_s >= floor, (
        f"kernel scenario {scenario!r} regressed: "
        f"{kb.events_per_s:,.0f} events/s < {floor:,.0f} "
        f"(= {REGRESSION_FLOOR:.0%} of baseline "
        f"{baseline['kernel'][scenario]['events_per_s']:,.0f}); if the "
        f"hardware class changed, re-baseline benchmarks/perf/baseline.json"
    )


@pytest.mark.parametrize("scenario", sorted(_BASELINE.get("metadata", {})))
def test_metadata_microbench_vs_baseline(baseline, scenario):
    from repro.experiments.mdbench import bench_metadata

    mb = bench_metadata(scenario, repeats=2)
    assert mb.ops > 0 and mb.node_ops > 0, "metadata bench did no work"
    floor = REGRESSION_FLOOR * baseline["metadata"][scenario]["ops_per_s"]
    assert mb.ops_per_s >= floor, (
        f"metadata scenario {scenario!r} regressed: "
        f"{mb.ops_per_s:,.0f} ops/s < {floor:,.0f} "
        f"(= {REGRESSION_FLOOR:.0%} of baseline "
        f"{baseline['metadata'][scenario]['ops_per_s']:,.0f}); if the "
        f"hardware class changed, re-baseline benchmarks/perf/baseline.json"
    )


def test_live_append_retained_metadata_under_ceiling(baseline):
    """What `repro-serve` keeps per append besides the payload — ~8 tree
    nodes at this depth, one version record, one fragment — stays under
    the committed ceiling in bytes and in collector-tracked objects
    (keys and inner nodes are exact tuples the collector untracks, so
    its passes do not grow with history), and the DHT keeps nothing per
    key but its buckets (placement is computed only where the simulator
    bills it, never remembered)."""
    from repro.engine.base import Payload
    from repro.server import BlobServer

    row = baseline["memory"]["live_append"]
    n, record, page = row["appends"], row["record_bytes"], row["page_bytes"]
    server = BlobServer(n_providers=8)

    async def drive() -> tuple[int, int]:
        blob = server.service.create_blob(page)
        await server.engine.run(server.bsfs.create_file("c", "/f", blob, page))
        gc.collect()
        tracked_before = len(gc.get_objects())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(n):
                body = Payload(bytes([i % 251]) * record)
                await server.engine.run(server.bsfs.append_file("c", "/f", body))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # keys leave the collector's lists at the first pass that meets
        # them, the inner nodes holding them at the second
        gc.collect()
        gc.collect()
        return after - before, len(gc.get_objects()) - tracked_before

    try:
        held, tracked = asyncio.run(drive())
    finally:
        server.service.close()
    dht = server.service.dht
    assert len(dht) > 8 * n, "the appends built no tree"
    per_append = (held - n * record) / n
    assert per_append <= row["max_retained_bytes_per_append"], (
        f"a live append retains {per_append:,.0f} B besides its payload "
        f"({len(dht) / n:.1f} tree nodes), ceiling "
        f"{row['max_retained_bytes_per_append']:,} B: the per-node cost "
        f"crept back (see the note in benchmarks/perf/baseline.json)"
    )
    assert tracked / n <= row["max_tracked_objects_per_append"], (
        f"a live append leaves {tracked / n:.1f} objects on the cyclic "
        f"collector's lists, ceiling {row['max_tracked_objects_per_append']}: "
        f"retained metadata must be exact tuples of atoms (a tuple "
        f"subclass or a slotted object per node is tracked for life)"
    )

    def entries(value) -> int:
        if isinstance(value, dict):
            return len(value) + sum(map(entries, value.values()))
        if isinstance(value, (list, tuple, set)):
            return len(value) + sum(map(entries, value))
        return 0

    per_key = {
        name: entries(value)
        for name, value in vars(dht).items()
        if name != "_buckets" and entries(value) > 2 * dht.n_providers
    }
    assert not per_key, f"MetadataDHT grows with its keys outside _buckets: {per_key}"


def test_fig8_performs_no_full_collection_inside_the_kernel(monkeypatch):
    """The open-loop sweep at a quarter of its quick scale (5,000
    flyweight clients, 0.5 s of arrivals at two offered loads): while
    `Environment.run` dispatches, the cyclic collector must not walk the
    deployment — 3 full collections did at this size, 13 per full pass
    and a third of its host time, before the kernel paused it."""
    from repro.common.config import ExperimentConfig
    from repro.experiments.openloop import open_loop_sweep
    from repro.sim.core import Environment

    depth = [0]
    inside = [0, 0, 0]
    real_run = Environment.run

    def run(self, until=None):
        depth[0] += 1
        try:
            return real_run(self, until)
        finally:
            depth[0] -= 1

    def on_collection(phase, info):
        if phase == "stop" and depth[0]:
            inside[info["generation"]] += 1

    monkeypatch.setattr(Environment, "run", run)
    gc.callbacks.append(on_collection)
    try:
        points = open_loop_sweep(
            (1000.0, 12500.0), ExperimentConfig(repetitions=1), 0.5, 5000
        )
    finally:
        gc.callbacks.remove(on_collection)
    assert all(len(p.latencies_s) == p.ops > 0 for p in points)
    assert inside[2] == 0, (
        f"collections inside Environment.run by generation: {inside}"
    )


def test_fig8_traffic_never_reaches_the_rate_solver(baseline, monkeypatch):
    """A 1,150 MiB/s NIC binds from its fifth 270 MiB/s flow and fig8's
    4-NIC rack uplink from its 18th; the open-loop sweep never gets
    there, so every flow runs at its bound from start to finish and the
    allocator performs no solve at all — 64,978 of them, a quarter of
    the run's host time, before it looked at which links can bind."""
    from repro.sim.network import Network

    started = [0]
    real_start = Network._start_flow

    def start(self, src, dst, nbytes, done):
        started[0] += src is not dst
        real_start(self, src, dst, nbytes, done)

    monkeypatch.setattr(Network, "_start_flow", start)
    fb = bench_figure("fig8", scale=baseline["scale"], repeats=1)
    assert started[0] > 30_000, "fig8 moved no data"
    assert fb.flow_changes == 2 * started[0], "a flow started and never finished"
    assert (fb.reallocs, fb.flushes) == (0, 0), (
        f"fig8 solved {fb.reallocs} times for {fb.flow_changes} flow "
        f"changes (mean scope {fb.realloc_scope_mean:.2f}): a link that "
        f"cannot saturate is coupling its flows again"
    )


def test_coalescing_counters_wired(baseline):
    """fig6's same-instant shuffle churn must actually coalesce — and
    its reducers' NICs do saturate, so it is the figure that still
    needs the solver."""
    fb = bench_figure("fig6", scale=baseline["scale"], repeats=1)
    assert 0 < fb.reallocs <= fb.flushes, "fig6's shuffle no longer solves"
    assert fb.coalesced_changes > fb.flushes, (
        f"coalescing ineffective: {fb.coalesced_changes} flow changes "
        f"over {fb.flushes} flushes"
    )

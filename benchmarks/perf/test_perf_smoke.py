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
throughput) are gated the same way. Eleven gates are ceilings rather
than speed floors: the bytes a live append leaves behind besides its
payload (tree nodes, their keys, the DHT's buckets), the objects it
leaves on the cyclic collector's lists, the bytes the log page store's
index holds per record, the bytes an in-flight fig8
op holds while it waits and those a fig8 append parked behind its
group-commit leader holds, the full collections a
fig8 run performs inside the kernel's dispatch loop (none: the kernel
pauses the collector, DESIGN.md "Memory and the collector"), and the
rate solves a fig8 run performs (none: no link of its fabric can
saturate, DESIGN.md "Only links that can bind"), the SHA-1 placements
fig4 computes per metadata key it bills, the objects the collection
between deployments examines once the permanent heap is frozen, the
minor page faults `repro-serve` takes per served append, and the
instrument updates and metrics locks a served append costs (one gate).

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
    (keys and inner nodes are ints, never on the collector's lists, so
    its passes do not grow with history), and the
    DHT keeps nothing per key but its buckets (placement is computed,
    and remembered, only where the simulator bills it)."""
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
        # keys and inner nodes are ints, never tracked; a leaf is its
        # fragment tuple
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
        f"retained metadata must be ints, beside each leaf's fragment tuple "
        f"(a tuple or a slotted object per node is tracked)"
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


def test_log_index_bytes_per_record_under_ceiling(baseline, tmp_path):
    """The log page store keeps one index entry per record in memory —
    its key and one int packing the record's offset and length — so a
    durable provider's footprint per stored page stays under the
    committed ceiling. Measured over as many 4 KiB pages as the
    live-append probe appends."""
    from repro.blobseer.backends.logstore import LogStructuredPageStore

    row = baseline["memory"]["live_append"]
    n, value = row["appends"], b"v" * row["record_bytes"]
    store = LogStructuredPageStore(tmp_path / "provider.log")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(n):
            store.put(b"page/1/c/%d" % i, value)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        store.close()
    per_record = (after - before) / n
    assert per_record <= row["max_log_index_bytes_per_record"], (
        f"the log store's index holds {per_record:,.0f} B per record, "
        f"ceiling {row['max_log_index_bytes_per_record']:,} B: an index "
        f"entry must stay one int (see benchmarks/perf/baseline.json)"
    )


def test_openloop_inflight_bytes_per_op_under_ceiling(baseline, monkeypatch):
    """What one in-flight fig8 op costs while it waits: on one reduced
    overloaded point (12,500 ops/s for 0.5 s over 5,000 clients, ~6,200
    appends, nearly all still queued at the version manager when the
    last one arrives), tracemalloc bytes held at the last arrival minus
    those held once the backlog has drained (both after a collection,
    the deployment alive in both), divided by the ops in flight at the
    last arrival. That is the generator frames plus each simulated
    RPC's record, the op's process and its completion callback — the
    per-op closures the RPC path used to build are what the ceiling
    keeps out."""
    import weakref

    from repro.bsfs.simulated import SimBSFS
    from repro.common.config import ExperimentConfig
    from repro.experiments.openloop import open_loop_sweep
    from repro.sim.core import Environment

    row = baseline["memory"]["openloop_inflight"]
    ops = []
    real_append = SimBSFS.append_proc

    def append_proc(self, *args):
        gen = real_append(self, *args)
        ops.append(weakref.ref(gen))
        return gen

    held = {}
    real_run = Environment.run

    def run(self, until=None):
        value = real_run(self, until)
        if getattr(until, "name", None) == "openloop-driver":
            # the last arrival: every op not yet done is parked in a yield
            held["in_flight"] = sum(
                1 for ref in ops if ref() is not None and ref().gi_suspended
            )
            gc.collect()
            held["at_last_arrival"] = tracemalloc.get_traced_memory()[0]
        elif "at_last_arrival" in held and "drained" not in held:
            gc.collect()
            held["drained"] = tracemalloc.get_traced_memory()[0]
        return value

    monkeypatch.setattr(SimBSFS, "append_proc", append_proc)
    monkeypatch.setattr(Environment, "run", run)
    gc.collect()
    tracemalloc.start()
    try:
        (point,) = open_loop_sweep(
            (row["offered_ops_s"],),
            ExperimentConfig(repetitions=1),
            row["duration_s"],
            row["clients"],
        )
    finally:
        tracemalloc.stop()
    assert len(point.latencies_s) == point.ops == len(ops)
    in_flight = held["in_flight"]
    assert in_flight > 0.9 * point.ops, "the point is not overloaded"
    per_op = (held["at_last_arrival"] - held["drained"]) / in_flight
    assert per_op <= row["max_bytes_per_op"], (
        f"an in-flight open-loop op holds {per_op:,.0f} B "
        f"({in_flight:,} in flight at the last arrival), ceiling "
        f"{row['max_bytes_per_op']:,} B: per-op state crept back onto the "
        f"simulated RPC path (see the note in benchmarks/perf/baseline.json)"
    )


def test_openloop_queued_bytes_per_op_under_ceiling(baseline, monkeypatch):
    """What one group-commit append costs while it waits behind its
    leader: on the reduced fig8 point of the in-flight ceiling, nearly
    every append hands its change map to the version manager and parks
    in ``publish_wait`` once the arrivals stop. tracemalloc bytes held
    at the instant the most appends are parked, minus those held once
    the backlog has drained (the deployment alive in both), divided by
    the parked appends. That is each parked append's generator frames,
    process and wait event, the change map the version manager holds
    for it, and its payload; a sub-generator frame kept alive across
    the wait, a payload or a boxed size per op is what the ceiling
    keeps out."""
    from repro.blobseer.version_manager import VersionManagerCore
    from repro.common.config import ExperimentConfig
    from repro.experiments.openloop import open_loop_sweep
    from repro.sim.core import Environment

    row = baseline["memory"]["openloop_queued"]
    peak = {"parked": 0}
    real_when_published = VersionManagerCore.when_published

    def when_published(self, blob_id, version, callback):
        real_when_published(self, blob_id, version, callback)
        parked = len(self._publish_waiters)
        if parked > peak["parked"]:
            # dispatch pauses the collector and frees by reference
            # count alone (DESIGN.md §5d), so no collection is needed
            # for a reading taken here
            peak["parked"] = parked
            peak["held"] = tracemalloc.get_traced_memory()[0]

    runs = []
    real_run = Environment.run

    def run(self, until=None):
        value = real_run(self, until)
        if runs or getattr(until, "name", None) == "openloop-driver":
            # the arrivals, then the drain of the backlog
            gc.collect()
            runs.append(tracemalloc.get_traced_memory()[0])
        return value

    monkeypatch.setattr(VersionManagerCore, "when_published", when_published)
    monkeypatch.setattr(Environment, "run", run)
    gc.collect()
    tracemalloc.start()
    try:
        (point,) = open_loop_sweep(
            (row["offered_ops_s"],),
            ExperimentConfig(repetitions=1),
            row["duration_s"],
            row["clients"],
        )
    finally:
        tracemalloc.stop()
    assert len(point.latencies_s) == point.ops
    parked = peak["parked"]
    assert parked > 0.8 * point.ops, "the appends did not queue behind a leader"
    per_op = (peak["held"] - runs[1]) / parked
    assert per_op <= row["max_bytes_per_op"], (
        f"an append parked in publish_wait holds {per_op:,.0f} B "
        f"({parked:,} parked at the peak), ceiling "
        f"{row['max_bytes_per_op']:,} B: per-op state crept back onto the "
        f"group-commit wait (see the note in benchmarks/perf/baseline.json)"
    )


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


def test_owner_hashes_per_billed_key_under_ceiling(baseline, monkeypatch):
    """Quick fig4 bills ~107k metadata keys, and concurrent readers and
    appenders walk the same tree paths: `DesEngine.charge_md`'s bounded
    owner memo answers more than half of them without a SHA-1. It read
    1.0 hashes per billed key when every charge recomputed placement."""
    from repro.engine import des

    row = baseline["host_work"]["owner_hashes"]
    hashes, billed = [0], [0]
    real_hash, real_charge = des.placement_hash, des.DesEngine.charge_md

    def placement_hash(key_bytes, buckets):
        hashes[0] += 1
        return real_hash(key_bytes, buckets)

    def charge_md(self, parent, keys):
        billed[0] += len(keys)
        return real_charge(self, parent, keys)

    monkeypatch.setattr(des, "placement_hash", placement_hash)
    monkeypatch.setattr(des.DesEngine, "charge_md", charge_md)
    bench_figure(row["figure"], scale=baseline["scale"], repeats=1)
    assert billed[0] > 50_000, f"{row['figure']} billed no metadata"
    per_key = hashes[0] / billed[0]
    assert per_key <= row["max_hashes_per_billed_key"], (
        f"{row['figure']} computed {hashes[0]:,} placements for "
        f"{billed[0]:,} billed keys ({per_key:.3f} a key), ceiling "
        f"{row['max_hashes_per_billed_key']}: the owner memo stopped "
        f"answering repeated keys"
    )


#: a fresh interpreter runs one figure and prints, for each collection
#: between deployments, the tracked objects it examines
_COLLECTOR_WALK = """
import gc, json, sys
from repro.common.config import ExperimentConfig
from repro.experiments import deploy
from repro.experiments.figures import ALL_FIGURES

walked = []
real = deploy._collect_previous_deployment

def collect():
    walked.append(len(gc.get_objects()))
    real()

deploy._collect_previous_deployment = collect
ALL_FIGURES[sys.argv[1]](scale=sys.argv[2], config=ExperimentConfig(repetitions=1))
print(json.dumps(walked))
"""


def test_between_deployment_collections_walk_only_the_new_heap(baseline):
    """After the first deployment of a process, the full collection
    before each deployment examines only what was made since the heap
    was frozen — the dropped deployment and the driver's results — not
    the ~25k objects of the modules, numpy and the harness it walked
    every time before. Run in a fresh interpreter: the count depends
    on what the process made before its first deployment."""
    import os
    import subprocess
    import sys
    import threading

    import repro

    row = baseline["host_work"]["collector_walk"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _COLLECTOR_WALK, row["figure"], baseline["scale"]],
        capture_output=True, text=True, check=True, env=env,
    )
    walked = json.loads(out.stdout)
    assert len(walked) > 2, f"{row['figure']} deployed {len(walked)} times"
    assert max(walked[1:]) <= row["max_tracked_objects"], (
        f"the collections between {row['figure']}'s deployments examined "
        f"{walked} tracked objects, ceiling {row['max_tracked_objects']:,} "
        f"after the first: the permanent heap is walked again"
    )


def test_served_append_minor_faults_under_ceiling(baseline):
    """A `repro-serve` process takes ~1.5 minor page faults per served
    4 KiB append — the page each stored body lands on, and a share of
    the metadata's — since each connection reads its socket into one
    reusable buffer. It took ~4.1 while every read was a fresh 256 KiB
    ``bytes`` object shrunk to the ~4.2 KiB received: with the bodies
    retained, those transient blocks kept landing on fresh heap pages.
    Read from ``/proc/PID/stat`` of the server, its own process."""
    import http.client
    import os
    import signal
    import subprocess
    import sys
    import threading

    import repro

    stat_path = f"/proc/{os.getpid()}/stat"
    if not os.path.exists(stat_path):
        pytest.skip("needs /proc/PID/stat")
    row = baseline["host_work"]["served_append_faults"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.server.cli", "--port", "0", "--providers", "8"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    # the address line, under a deadline: a child that dies or hangs
    # before printing it fails the test instead of blocking it
    first = []
    reader = threading.Thread(
        target=lambda: first.append(server.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(60)
    if not first or "http://" not in first[0]:
        server.kill()
        pytest.fail(
            f"repro-serve printed {first[0] if first else 'nothing'!r} "
            f"instead of its address; exit status {server.wait()}"
        )

    def minor_faults() -> int:
        with open(f"/proc/{server.pid}/stat") as fp:
            # minflt, the 10th field; the command name may hold spaces
            return int(fp.read().rsplit(")", 1)[1].split()[7])

    def post(conn, target, body=None) -> None:
        conn.request("POST", target, body=body)
        resp = conn.getresponse()
        resp.read()
        assert resp.status in (200, 201), (target, resp.status)

    conns = []
    try:
        host, port = first[0].rsplit("http://", 1)[1].strip().split(":")
        conns = [
            http.client.HTTPConnection(host, int(port))
            for _ in range(row["connections"])
        ]
        post(conns[0], f"/fs/files/faults?page_size={row['page_bytes']}")
        body = b"f" * row["record_bytes"]
        for conn in conns:  # open each connection before counting
            post(conn, "/fs/append/faults", body)
        before = minor_faults()
        for _ in range(row["appends_per_connection"]):
            for conn in conns:
                post(conn, "/fs/append/faults", body)
        per_append = (minor_faults() - before) / (
            row["connections"] * row["appends_per_connection"]
        )
    finally:
        for conn in conns:
            conn.close()
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=60) == 0, "repro-serve did not stop cleanly"
    assert per_append <= row["max_minor_faults_per_append"], (
        f"repro-serve took {per_append:.2f} minor page faults per served "
        f"append, ceiling {row['max_minor_faults_per_append']}: reads "
        f"allocate per call again (see the note in benchmarks/perf/baseline.json)"
    )


def test_served_append_instrument_work_under_ceiling(baseline, monkeypatch):
    """Each fact a served append records is one instrument update, and
    none takes a lock: counters add into their thread's tally cell and
    histograms append to a buffer drained every ``_DRAIN_AT`` values.
    It read ~18 updates per append while the ticket was counted three
    times, every allocation four, and the queue-depth, imbalance and
    load gauges were set on every change, and ~15 lock acquisitions
    while every update locked. Counted in process: every
    ``inc``/``set``/``observe`` call, and every ``with`` on a lock made
    by ``repro.obs.metrics``."""
    import http.client
    import threading

    from repro.obs import MetricsRegistry, Observability, Tracer, metrics
    from repro.server import BlobServer, ServerThread
    from repro.server.cli import HIST_MAX_SAMPLES

    row = baseline["host_work"]["served_append_instruments"]
    counts = {"updates": 0, "locks": 0}

    class CountingLock:
        def __init__(self) -> None:
            self._lock = threading.Lock()

        def __enter__(self):
            counts["locks"] += 1
            return self._lock.__enter__()

        def __exit__(self, *exc):
            return self._lock.__exit__(*exc)

    class CountingThreading:
        Lock = CountingLock

    def counted(method):
        def update(self, *args):
            counts["updates"] += 1
            return method(self, *args)

        return update

    monkeypatch.setattr(metrics, "threading", CountingThreading)
    for cls, name in ((metrics.Counter, "inc"), (metrics.Gauge, "set"),
                      (metrics.Histogram, "observe")):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name)))

    def post(conn, target, body=None) -> None:
        conn.request("POST", target, body=body)
        resp = conn.getresponse()
        resp.read()
        assert resp.status in (200, 201), (target, resp.status)

    # repro-serve's registry, built after the counting patches
    obs = Observability(
        tracer=Tracer(enabled=False),
        registry=MetricsRegistry(default_hist_max_samples=HIST_MAX_SAMPLES),
    )
    st = ServerThread(BlobServer(port=0, n_providers=8, obs=obs))
    host, port = st.start()
    conns = []
    try:
        conns = [
            http.client.HTTPConnection(host, port)
            for _ in range(row["connections"])
        ]
        post(conns[0], f"/fs/files/instruments?page_size={row['page_bytes']}")
        body = b"i" * row["record_bytes"]
        for conn in conns:  # open each connection before counting
            post(conn, "/fs/append/instruments", body)
        before = dict(counts)
        for _ in range(row["appends_per_connection"]):
            for conn in conns:
                post(conn, "/fs/append/instruments", body)
        after = dict(counts)
    finally:
        for conn in conns:
            conn.close()
        st.stop()
    n = row["connections"] * row["appends_per_connection"]
    updates = (after["updates"] - before["updates"]) / n
    locks = (after["locks"] - before["locks"]) / n
    assert updates <= row["max_updates_per_append"], (
        f"a served append makes {updates:.2f} instrument updates, ceiling "
        f"{row['max_updates_per_append']}: a fact is recorded twice or a "
        f"derived value pushed per operation (see the note in "
        f"benchmarks/perf/baseline.json)"
    )
    assert locks <= row["max_lock_acquisitions_per_append"], (
        f"a served append takes {locks:.3f} metrics locks, ceiling "
        f"{row['max_lock_acquisitions_per_append']}: recording a fact "
        f"takes a lock again"
    )

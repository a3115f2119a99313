"""One function per paper figure/table: regenerate it end-to-end.

Two scales are provided:

* ``"paper"`` — the full 270-node deployment with the paper's sweep
  ranges and 5 repetitions per point (minutes of wall time);
* ``"quick"`` — the same deployment with sparser sweeps and one
  repetition (seconds; what the pytest benchmarks run).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import ExperimentConfig
from ..obs import Observability
from . import microbench
from .datajoin_exp import DataJoinCalibration, sweep as datajoin_sweep
from .report import FigureResult, Series


def _config(scale: str, config: Optional[ExperimentConfig]) -> ExperimentConfig:
    """The run's config: the caller's, or the scale's default. *scale*
    also picks every figure's sweep, so it is checked on both paths."""
    if scale not in ("paper", "quick"):
        raise ValueError(f"unknown scale {scale!r} (use 'paper' or 'quick')")
    if config is None:
        config = ExperimentConfig()
        if scale == "quick":
            config.repetitions = 1
    else:
        config.validate()
    return config


def _sweep(scale: str, paper: Sequence[int], quick: Sequence[int]) -> List[int]:
    return list(paper if scale == "paper" else quick)


def fig3(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 3: performance of BSFS when concurrent clients append data
    to the same file."""
    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[1, 30, 60, 90, 120, 150, 180, 210, 246],
        quick=[1, 60, 120, 180, 246],
    )
    points = microbench.concurrent_appends(counts, cfg, obs=obs)
    return FigureResult(
        fig_id="fig3",
        title="Concurrent appends to the same file (BSFS)",
        xlabel="clients",
        ylabel="avg append throughput (MiB/s)",
        series=[
            Series("BSFS", [p.x for p in points], [p.mean_mbps for p in points])
        ],
        paper_claim=(
            "BSFS maintains a good throughput as the number of appenders "
            "increases (1..246 clients, 64 MB appends)"
        ),
    )


def fig4(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 4: impact of concurrent appends on concurrent reads from
    the same file (100 readers fixed)."""
    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[0, 20, 40, 60, 80, 100, 120, 140],
        quick=[0, 60, 140],
    )
    points = microbench.reads_under_appends(counts, cfg, obs=obs)
    return FigureResult(
        fig_id="fig4",
        title="Impact of concurrent appends on reads (100 readers)",
        xlabel="appenders",
        ylabel="avg read throughput (MiB/s)",
        series=[
            Series("BSFS", [p.x for p in points], [p.mean_mbps for p in points])
        ],
        paper_claim=(
            "the average throughput of BSFS reads is sustained even when "
            "the same file is accessed by multiple concurrent appenders"
        ),
    )


def fig5(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 5: impact of concurrent reads on concurrent appends to the
    same file (100 appenders fixed)."""
    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[0, 20, 40, 60, 80, 100, 120, 140],
        quick=[0, 60, 140],
    )
    points = microbench.appends_under_reads(counts, cfg, obs=obs)
    return FigureResult(
        fig_id="fig5",
        title="Impact of concurrent reads on appends (100 appenders)",
        xlabel="readers",
        ylabel="avg append throughput (MiB/s)",
        series=[
            Series("BSFS", [p.x for p in points], [p.mean_mbps for p in points])
        ],
        paper_claim=(
            "concurrent appenders maintain their throughput as well, when "
            "the number of concurrent readers from a shared file increases"
        ),
    )


def fig6(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    calibration: Optional[DataJoinCalibration] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 6: completion time of the data join application when
    varying the number of reducers, HDFS-separate vs BSFS-shared."""
    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[1, 10, 30, 60, 90, 130, 170, 200, 230],
        quick=[1, 10, 130, 230],
    )
    hdfs_pts, bsfs_pts = datajoin_sweep(counts, cfg, calibration, obs=obs)
    return FigureResult(
        fig_id="fig6",
        title="Data join completion time vs number of reducers",
        xlabel="reducers",
        ylabel="completion time (s)",
        series=[
            Series(
                "HDFS - multiple output files",
                [p.n_reducers for p in hdfs_pts],
                [p.completion_seconds for p in hdfs_pts],
            ),
            Series(
                "BSFS - single output file",
                [p.n_reducers for p in bsfs_pts],
                [p.completion_seconds for p in bsfs_pts],
            ),
        ],
        paper_claim=(
            "BSFS finishes the job in approximately the same amount of time "
            "as HDFS, and moreover, it produces a single output file; "
            "completion time in both scenarios remains constant as reducers "
            "increase"
        ),
        notes=(
            f"BSFS output files per run: "
            f"{sorted(set(p.output_files for p in bsfs_pts))}; HDFS output "
            f"files == reducers"
        ),
    )


def fig7(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 7 (supplementary, beyond the paper): append throughput of
    N concurrent clients while two data providers crash mid-run and one
    appender dies holding an uncommitted append ticket."""
    from .chaos import chaos_appends

    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[4, 30, 60, 90, 120, 150, 180, 210, 246],
        quick=[4, 60, 120, 246],
    )
    points = chaos_appends(
        counts, cfg, provider_crashes=2, appender_crashes=1, obs=obs
    )
    return FigureResult(
        fig_id="fig7",
        title="Concurrent appends under failures (chaos, BSFS)",
        xlabel="clients",
        ylabel="avg append throughput of survivors (MiB/s)",
        series=[
            Series("BSFS", [p.x for p in points], [p.mean_mbps for p in points])
        ],
        paper_claim=(
            "beyond the paper: appends keep completing when providers and "
            "an appender crash mid-run — replica failover routes around "
            "dead providers and the append-ticket lease aborts the dead "
            "appender's version so the publish frontier advances"
        ),
        notes=(
            "replication forced to 2 and the append lease shortened to "
            "2 s for the run; survivors' throughput includes the stall "
            "waiting for the dead appender's lease to expire"
        ),
    )


def fig8(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Figure 8 (beyond the paper): open-loop concurrent-append scale.

    Tens of thousands of flyweight clients offer Poisson append load to
    a few shared files on a multi-rack deployment; the sweep reports
    goodput and p99 append latency versus offered load. Closed-loop
    sweeps (fig3) cannot overload the system, so this is the figure that
    locates the capacity knee of the shared-output-file design.
    """
    from .openloop import find_knee, open_loop_sweep

    cfg = _config(scale, config)
    if scale == "paper":
        loads = [125.0, 250.0, 500.0, 750.0, 1000.0, 1500.0, 2500.0,
                 5000.0, 12500.0]
        duration = 4.0
        n_clients = 50_000
    else:
        loads = [250.0, 500.0, 1000.0, 2000.0, 12500.0]
        duration = 2.0
        n_clients = 20_000
    points = open_loop_sweep(
        loads, cfg, duration=duration, n_clients=n_clients, obs=obs
    )
    knee = find_knee(points)
    knee_note = (
        f"knee at ~{knee.offered_ops_s:,.0f} ops/s offered "
        f"(goodput {knee.goodput_ops_s:,.0f} ops/s, "
        f"p99 {knee.p99_latency_s * 1000:,.0f} ms)"
        if knee is not None
        else "no knee within the swept loads"
    )
    max_clients = max((p.clients for p in points), default=0)
    return FigureResult(
        fig_id="fig8",
        title="Open-loop concurrent appends: goodput/p99 vs offered load",
        xlabel="offered load (ops/s)",
        ylabel="goodput (ops/s) / p99 latency (ms)",
        series=[
            Series(
                "goodput (ops/s)",
                [p.offered_ops_s for p in points],
                [p.goodput_ops_s for p in points],
            ),
            Series(
                "p99 append latency (ms)",
                [p.offered_ops_s for p in points],
                [p.p99_latency_s * 1000.0 for p in points],
            ),
        ],
        paper_claim=(
            "beyond the paper: under open-loop load the shared-file "
            "append path sustains offered load up to the version "
            "manager's serialization capacity, then degrades gracefully "
            "— goodput plateaus at capacity instead of collapsing"
        ),
        notes=(
            f"{knee_note}; up to {max_clients:,} distinct flyweight "
            f"clients per point on a multi-rack (two-level) topology"
        ),
    )


def supplementary_separate_writes(
    scale: str = "quick",
    config: Optional[ExperimentConfig] = None,
    obs: Optional[Observability] = None,
) -> FigureResult:
    """Supplementary (not a paper figure): N clients each write one
    64 MB chunk to a private file, HDFS vs BSFS — the file-system-level
    'no extra cost' check behind Figure 6's conclusion."""
    cfg = _config(scale, config)
    counts = _sweep(
        scale,
        paper=[1, 30, 60, 120, 180, 246],
        quick=[1, 60, 180],
    )
    hdfs_pts, bsfs_pts = microbench.separate_writes_comparison(counts, cfg, obs=obs)
    return FigureResult(
        fig_id="sup-writes",
        title="Separate-file writes: HDFS vs BSFS (supplementary)",
        xlabel="clients",
        ylabel="avg write throughput (MiB/s)",
        series=[
            Series("HDFS", [p.x for p in hdfs_pts], [p.mean_mbps for p in hdfs_pts]),
            Series("BSFS", [p.x for p in bsfs_pts], [p.mean_mbps for p in bsfs_pts]),
        ],
        paper_claim=(
            "support for concurrent appends to shared files is introduced "
            "with no extra cost (paper conclusion; this check isolates the "
            "storage layer)"
        ),
        notes=(
            "BSFS pulls ahead under concurrency because HDFS 'picks random "
            "servers to store the data, which will often lead to a layout "
            "that is not load balanced' (paper §2.2), while the provider "
            "manager places least-loaded-first"
        ),
    )


def filecount_table(
    reducer_counts: Sequence[int] = (1, 2, 4, 8, 16),
    obs: Optional[Observability] = None,
) -> FigureResult:
    """The file-count problem (implicit table): output files and
    namespace entries after the data join, original vs modified
    framework — functional runtimes, real bytes."""
    import time as _time

    from ..bsfs import BSFS
    from ..common.config import BlobSeerConfig, HDFSConfig
    from ..hdfs import HDFSCluster
    from ..mapreduce import MapReduceCluster
    from ..apps import run_datajoin
    from ..workloads import kv_corpus

    if obs is not None and obs.tracer.enabled:
        # this table runs the threaded runtime: wall-clock timestamps
        obs.tracer.use_clock(_time.perf_counter)
    left = kv_corpus(300, key_space=40, seed=11)
    right = kv_corpus(300, key_space=40, seed=12)
    hdfs_files: List[float] = []
    bsfs_files: List[float] = []
    hdfs_entries: List[float] = []
    bsfs_entries: List[float] = []
    for r in reducer_counts:
        hd = HDFSCluster(n_datanodes=4, config=HDFSConfig(chunk_size=16 * 1024))
        fs = hd.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=list(hd.datanodes), obs=obs)
        res = run_datajoin(mr, "/in/left", "/in/right", "/out", n_reducers=r)
        hdfs_files.append(res.output_file_count)
        _dirs, files = hd.namenode.tree.count_entries()
        hdfs_entries.append(files)

        dep = BSFS(
            config=BlobSeerConfig(page_size=16 * 1024, metadata_providers=4),
            n_providers=4,
            obs=obs,
        )
        bfs = dep.file_system()
        bfs.write_all("/in/left", left)
        bfs.write_all("/in/right", right)
        mr2 = MapReduceCluster(
            bfs, hosts=[f"provider-{i:03d}" for i in range(4)], obs=obs
        )
        res2 = run_datajoin(
            mr2, "/in/left", "/in/right", "/out", n_reducers=r, output_mode="shared"
        )
        bsfs_files.append(res2.output_file_count)
        bsfs_entries.append(dep.namespace.file_count())

    xs = [float(r) for r in reducer_counts]
    return FigureResult(
        fig_id="tab-filecount",
        title="The file-count problem: output files after the data join",
        xlabel="reducers",
        ylabel="files",
        series=[
            Series("HDFS output files", xs, hdfs_files),
            Series("BSFS output files", xs, bsfs_files),
            Series("HDFS namespace files", xs, hdfs_entries),
            Series("BSFS namespace files", xs, bsfs_entries),
        ],
        paper_claim=(
            "the number of files managed by the Map/Reduce framework is "
            "substantially reduced: one shared file instead of one per "
            "reducer"
        ),
    )


#: registry used by the CLI and the benchmarks
ALL_FIGURES: Dict[str, object] = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "filecount": filecount_table,
    "sup-writes": supplementary_separate_writes,
}

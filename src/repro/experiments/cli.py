"""``repro-fig`` — regenerate the paper's figures from the command line.

Examples::

    repro-fig fig3                  # quick sweep of Figure 3
    repro-fig fig6 --scale paper    # full-scale Figure 6 (minutes)
    repro-fig all --json out.json   # everything, also saved as JSON
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from ..common.config import ExperimentConfig
from ..obs import Observability, write_chrome_trace
from ..obs.runtime import gc_metrics
from .figures import ALL_FIGURES
from .runreport import build_report, report_text, write_report


def _suffixed(path: str, name: str, multi: bool) -> str:
    """``out.json`` -> ``out-fig3.json`` when several figures run."""
    if not multi:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-{name}{ext}"


def main(argv: List[str] | None = None) -> int:
    """Entry point: argument errors (bad figure names, ``--reps 0``)
    exit 2 through argparse's usage message, and Ctrl-C exits 130 with
    a one-line notice — a long figure run interrupted at the terminal
    must never splash a raw ``KeyboardInterrupt`` traceback."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fig",
        description=(
            "Regenerate the evaluation figures of 'Improving the Hadoop "
            "Map/Reduce Framework to Support Concurrent Appends through "
            "the BlobSeer BLOB management system' (HPDC'10)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(ALL_FIGURES) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "paper"],
        default="quick",
        help="sweep density and repetitions (default: quick)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        metavar="N",
        help="repetitions per data point (default: 1 quick / 5 paper)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each figure as an ASCII chart",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "capture spans while the figure runs and write a Chrome "
            "trace_event JSON to PATH (load it in chrome://tracing or "
            "ui.perfetto.dev) and print the run report; with multiple "
            "figures the figure name is appended to the file name"
        ),
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help=(
            "write a JSON run report to PATH (critical-path layer "
            "breakdown, latency percentiles, counters, gauges, cache "
            "hit-rate, fault timeline) and print its text rendering; "
            "implies collection even without --trace"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "run each figure under cProfile, dump pstats data to "
            "PATH (figure name appended when several figures run) and "
            "print the top functions by cumulative time"
        ),
    )
    args = parser.parse_args(argv)

    config = None
    if args.reps is not None:
        if args.reps < 1:
            parser.error("--reps must be >= 1")
        config = ExperimentConfig(repetitions=args.reps)

    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    observe = args.trace is not None or args.report is not None
    multi = len(names) > 1
    results = []
    for name in names:
        fn = ALL_FIGURES[name]
        # one fresh Observability per figure: each figure binds the
        # tracer clock to its own runtime (sim time vs wall clock)
        obs: Optional[Observability] = Observability.on() if observe else None
        if args.profile is not None:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
        # a report also says what the cyclic collector cost the run
        with (
            gc_metrics(obs.registry)
            if args.report is not None
            else contextlib.nullcontext()
        ):
            if name == "filecount":
                result = fn(obs=obs)
            else:
                result = fn(scale=args.scale, config=config, obs=obs)
        if args.profile is not None:
            profiler.disable()
            profile_path = _suffixed(args.profile, name, multi)
            profiler.dump_stats(profile_path)
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(15)
            print(f"wrote {profile_path} (load with pstats or snakeviz)")
        results.append(result)
        print(result.to_text())
        if args.chart:
            print()
            print(result.to_ascii_chart())
        if obs is not None:
            report = build_report(obs, figure=name)
            print()
            print(report_text(report))
            if args.trace:
                trace_path = _suffixed(args.trace, name, multi)
                write_chrome_trace(obs.tracer, trace_path, obs.registry)
                print(f"wrote {trace_path} ({len(obs.tracer)} spans)")
            if args.report:
                report_path = _suffixed(args.report, name, multi)
                write_report(report, report_path)
                print(f"wrote {report_path}")
        print()
    if args.json:
        with open(args.json, "w") as fp:
            json.dump([r.to_dict() for r in results], fp, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

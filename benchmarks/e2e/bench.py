"""The repo benchmark: four fixed-work workloads, measured end to end
and layer by layer. README.md (next to this file) is the glossary.

    python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1
        One run, one JSON result line (the contract in BENCHMARK.json).
        --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
        ones. --seconds sizes the fixed work: S/10 of the committed op
        counts, so a faster build does the same work in less time.

    python3 benchmarks/e2e/bench.py run [--workload W] [--seed N]
            [--repeats 3] [--scale full|smoke] [--out PATH] [--spans-out DIR]
        Per workload: --repeats untraced runs, then one traced run; every
        metric printed by name and unit, one JSON document written.

    python3 benchmarks/e2e/bench.py compare OLD.json NEW.json
        One row per workload x end-to-end metric; exits 1 on `worse`.

Every measurement happens in a fresh child process (``--phase``): runs
repeated inside one interpreter drift by tens of percent, and a child
can be pinned without pinning the orchestrator.
"""

import time

#: process start, as close as Python lets us see it: set-up time runs
#: from here to the first timed operation
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCHEMA = "repro-bench-e2e/v1"
SMOKE_SECONDS = 0.5
#: extra fresh-process set-ups per driver run, so setup_s is a median of 5
SETUP_PROBES = 4

with open(ROOT / "BENCHMARK.json") as _fp:
    CONTRACT = json.load(_fp)
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}


# -- one phase, in a child process ------------------------------------------------


def run_phase(args) -> int:
    """``--phase setup|measure|traced``: set up, (measure, check,) tear
    down; print one JSON document."""
    if not SRC.is_dir():
        print(f"no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    traced = args.phase == "traced"
    w = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds / CONTRACT["run_seconds"], traced, args.spans_out
    )
    try:
        try:
            w.setup()
            doc = {"setup_s": time.perf_counter() - T0}
            if args.phase != "setup":
                doc.update(w.measure())
                errors = w.check()
                for error in errors[:10]:
                    print(f"{args.workload}: check failed: {error}", file=sys.stderr)
                doc["failed"] += len(errors)
        finally:
            w.teardown()
        if traced:
            doc["trace"] = w.trace()
    finally:
        w.cleanup()
    print(json.dumps(doc, allow_nan=False))
    return 0


def child(phase, workload, seed, seconds, spans_out=None) -> dict:
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--phase", phase,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{phase} phase of {workload} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- one run: orchestrate the phases ---------------------------------------------


def untraced_run(workload, seed, seconds, probes) -> dict:
    """One untraced measurement; ``setup_s`` is the median over it and
    *probes* further fresh-process set-ups."""
    setups = [child("setup", workload, seed, seconds)["setup_s"] for _ in range(probes)]
    doc = child("measure", workload, seed, seconds)
    doc["setup_samples"] = setups + [doc["setup_s"]]
    doc["setup_s"] = statistics.median(doc["setup_samples"])
    return doc


def layer_metrics(workload, ref, traced) -> dict:
    """Every per-layer metric of BENCHMARK.json, and nothing else, from
    one traced run and its untraced reference *ref*; layers a workload
    does not run are 0."""
    out = _layer_metrics(workload, ref, traced)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return out


def _layer_metrics(workload, ref, traced) -> dict:
    out = dict.fromkeys(PER_LAYER, 0.0)
    trace = traced["trace"]
    for name, value in ref["extra"].items():
        if f"e2e.{name}" in out:
            out[f"e2e.{name}"] = float(value)
    if "host_s" in trace:  # a DES run under cProfile
        for layer, seconds in trace["host_s"].items():
            out[f"{layer}.host_s"] = seconds
        counters = trace["counters"]
        out["sim.core.events"] = counters.get("sim.kernel.events", 0.0)
        out["sim.core.events_per_s"] = ref["extra"]["sim_events_per_s"]
        out["sim.network.reallocs"] = counters.get("sim.net.reallocs", 0.0)
        out["sim.network.flushes"] = counters.get("sim.net.flushes", 0.0)
        out["blobseer.metadata.rpcs"] = counters.get("md.rpcs", 0.0)
        hits = counters.get("md.cache.hits", 0.0)
        lookups = hits + counters.get("md.cache.misses", 0.0)
        out["blobseer.metadata.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        groups = counters.get("vm.group_commits", 0.0)
        out["blobseer.version_manager.group_commits"] = groups
        out["blobseer.version_manager.group_commit_mean_size"] = (
            counters.get("vm.group_commit_members", 0.0) / groups if groups else 0.0
        )
        out["trace.profiled_wall_s"] = traced["host_wall_s"]
        out["trace.profile_overhead_ratio"] = traced["host_wall_s"] / (
            ref["host_wall_s"] / ref["passes"]
        )
        return out

    n = traced.get("client_ops", traced["ops"])
    mean_us = traced["mean_latency_us"]

    def us(seconds: float) -> float:
        return seconds / n * 1e6

    self_s, calls = trace["self_s"], trace["calls"]
    attributed = 0.0
    for layer, metric in (
        ("engine.aio", "engine.aio.self_us_per_op"),
        ("engine.threaded", "engine.threaded.self_us_per_op"),
        ("version_manager.busy", "blobseer.version_manager.busy_us_per_op"),
        ("version_manager.turn_wait", "blobseer.version_manager.turn_wait_us_per_op"),
        ("provider_manager", "blobseer.provider_manager.allocate_us_per_op"),
        ("metadata.build", "blobseer.metadata.build_us_per_op"),
        ("metadata.query", "blobseer.metadata.query_us_per_op"),
        ("pages.overlay", "blobseer.pages.overlay_us_per_op"),
        ("provider.put", "blobseer.provider.put_us_per_op"),
        ("provider.get", "blobseer.provider.get_us_per_op"),
        ("namespace", "bsfs.namespace.us_per_op"),
    ):
        out[metric] = us(self_s.get(layer, 0.0))
        attributed += out[metric]
    if workload == "http_append_small":
        # the server's spans start at engine.run; what the client saw
        # beyond them is parse, route, JSON, socket and event loop
        out["server.self_us_per_op"] = mean_us - us(trace["root_s"])
        attributed += out["server.self_us_per_op"]
    out["trace.mean_latency_us"] = mean_us
    out["trace.unattributed_share"] = 1.0 - attributed / mean_us
    out["trace.overhead_ratio"] = mean_us / ref["mean_latency_us"]
    out["blobseer.version_manager.calls_per_op"] = (
        sum(c for key, c in calls.items() if key.startswith("version_manager.")) / n
    )
    out["blobseer.metadata.node_puts_per_op"] = trace["counters"]["dht.puts"] / n
    out["blobseer.metadata.node_gets_per_op"] = trace["counters"]["dht.gets"] / n
    out["blobseer.provider.page_puts_per_op"] = (
        calls.get("provider.put:put_page", 0) / n
    )
    out["blobseer.provider.page_gets_per_op"] = (
        calls.get("provider.get:get_page", 0) / n
    )
    cache = trace.get("cache")
    if cache and cache["hits"] + cache["misses"]:
        out["bsfs.cache.hit_ratio"] = cache["hits"] / (
            cache["hits"] + cache["misses"]
        )
    return out


def traced_run(workload, seed, seconds, ref, spans_out=None):
    """One traced run, explained against the untraced reference *ref*.
    Returns ``(per-layer metrics, traced doc)``."""
    traced = child("traced", workload, seed, seconds, spans_out)
    return layer_metrics(workload, ref, traced), traced


def result_line(doc, values, units) -> dict:
    """The contract's result object."""
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": doc["failed"] == 0,
        "attempted": int(doc["ops"]),
        "failed": int(doc["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in units.items()
        },
    }


def print_metrics(workload, result) -> None:
    print(f"[{workload}] attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")


def cmd_single(args) -> int:
    if args.trace:
        ref = child("measure", args.workload, args.seed, args.seconds)
        values, doc = traced_run(args.workload, args.seed, args.seconds, ref)
        doc["failed"] += ref["failed"]
        result = result_line(doc, values, PER_LAYER)
    else:
        doc = untraced_run(args.workload, args.seed, args.seconds, SETUP_PROBES)
        result = result_line(doc, doc, END_TO_END)
    print_metrics(args.workload, result)
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


# -- run: repeats + one traced run per workload, one document ---------------------


def fingerprint() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "loadavg_at_start": list(os.getloadavg()),
    }


def spread(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def cmd_run(args) -> int:
    seconds = SMOKE_SECONDS if args.scale == "smoke" else CONTRACT["run_seconds"]
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": seconds,
        "repeats": args.repeats,
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    failed = False
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        repeats = [
            untraced_run(workload, args.seed, seconds, probes=0)
            for _ in range(args.repeats)
        ]
        spans_out = None
        if args.spans_out:
            os.makedirs(args.spans_out, exist_ok=True)
            spans_out = os.path.join(args.spans_out, f"{workload}.spans.jsonl")
        layers, traced = traced_run(
            workload, args.seed, seconds, ref=repeats[-1], spans_out=spans_out
        )
        entry = {
            "attempted": sum(r["ops"] for r in repeats) + traced["ops"],
            "failed": sum(r["failed"] for r in repeats) + traced["failed"],
            "affinity": repeats[-1]["affinity"],
            "end_to_end": {
                name: {**spread([r[name] for r in repeats]), "unit": spec["unit"]}
                for name, spec in END_TO_END.items()
            },
            "per_layer": {
                name: {"value": layers[name], "unit": spec["unit"]}
                for name, spec in PER_LAYER.items()
            },
        }
        entry["correct"] = entry["failed"] == 0
        failed |= not entry["correct"]
        doc["workloads"][workload] = entry
        print(f"[{workload}] attempted {entry['attempted']}, failed {entry['failed']}")
        for name, m in entry["end_to_end"].items():
            print(
                f"  {name:<52} {m['median']:>16.6g} {m['unit']}"
                f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={len(m['values'])})"
            )
        for name, m in entry["per_layer"].items():
            if m["value"]:
                print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(doc, fp, indent=1, allow_nan=False)
            fp.write("\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


# -- compare ------------------------------------------------------------------------


def verdict(old, new, spec) -> str:
    """``better``/``worse`` when the medians differ by more than the
    bound in that direction, ``unresolved`` when either side's own
    spread is wider than the bound, else ``within``."""
    bound = spec["bound"]
    base = old["median"]
    change = (new["median"] - base) / base
    if spec["better"] == "higher":
        change = -change
    if max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (old, new)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def cmd_compare(args) -> int:
    with open(args.old) as fp:
        old = json.load(fp)
    with open(args.new) as fp:
        new = json.load(fp)
    bad = False
    print(
        f"{'workload':<18} {'metric':<16} {'old':>12} {'new':>12} "
        f"{'new/old':>8} {'bound':>6}  verdict"
    )
    for workload, o in old["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload:<18} missing from {args.new}")
            bad = True
            continue
        for name, spec in END_TO_END.items():
            om, nm = o["end_to_end"][name], n["end_to_end"][name]
            v = verdict(om, nm, spec)
            bad |= v == "worse"
            print(
                f"{workload:<18} {name:<16} {om['median']:>12.6g} "
                f"{nm['median']:>12.6g} {nm['median'] / om['median']:>8.3f} "
                f"{spec['bound']:>6.2f}  {v}  (base {om['median']:.6g} {spec['unit']})"
            )
        old_share = o["failed"] / o["attempted"]
        new_share = n["failed"] / n["attempted"]
        if new_share > old_share:
            print(f"{workload:<18} failed share rose {old_share:.4g} -> {new_share:.4g}")
            bad = True
    return 1 if bad else 0


# -- entry ---------------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        p = argparse.ArgumentParser(prog="bench.py run")
        p.add_argument("--workload", choices=WORKLOAD_NAMES)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--repeats", type=int, default=3)
        p.add_argument("--scale", choices=["full", "smoke"], default="full")
        p.add_argument("--out")
        p.add_argument("--spans-out", metavar="DIR")
        return cmd_run(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="bench.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="bench.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--phase", choices=["setup", "measure", "traced"], help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not SRC.is_dir():
        print(f"no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    return run_phase(args) if args.phase else cmd_single(args)


if __name__ == "__main__":
    sys.exit(main())

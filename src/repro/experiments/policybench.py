"""The policy-matrix benchmark — storage-plane policies under workloads.

The storage plane is now policy-driven along two axes: *where replicas
land* (:mod:`repro.blobseer.placement` — round-robin, least-loaded,
rack-aware) and *how reads pick replicas*
(:mod:`repro.engine.replica` — rotated-sweep failover or R-of-N quorum
reads). This experiment runs the full cross product through three
workload columns and reports the grid (``python -m
repro.experiments.policybench [--json PATH]``, a named CI gate; the
grid's shape is a tier-1 test and one append cell is a perf floor):

* **wordcount** — the paper's Map/Reduce integration on the threaded
  runtime: corpus in, counts out (verified against an oracle), plus the
  locality fraction and placement imbalance the policy produced;
* **append** — a DES open-loop burst of concurrent appenders on a
  multi-rack cluster: makespan, simulated events, and load imbalance;
* **chaos** — crash a replica holder mid-workload with adaptive
  re-replication on: does the daemon restore the replica count, and do
  reads keep working (plus how many quorum reads were issued)?

An ``engines`` section smoke-runs the most adversarial combination
(rack-aware placement + quorum reads) end-to-end on all three runtimes
— DES, threaded, asyncio — as the cross-engine acceptance check.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..common.config import BlobSeerConfig, ClusterConfig
from ..common.units import KiB, MiB
from ..engine.base import Payload
from ..obs import Observability
from ..workloads import text_corpus

#: the policy grid (placement x read) every workload column runs
PLACEMENT_POLICIES = ("round_robin", "least_loaded", "rack_aware")
READ_POLICIES = ("sweep", "quorum")

PAGE = 64 * KiB


def _obs() -> Observability:
    from .bench import _bench_obs

    return _bench_obs()


def _policy_config(placement: str, read: str, **kw) -> BlobSeerConfig:
    defaults = dict(
        page_size=PAGE,
        metadata_providers=3,
        replication=2,
        placement_policy=placement,
        read_policy=read,
        read_quorum=2,
    )
    defaults.update(kw)
    cfg = BlobSeerConfig(**defaults)
    cfg.validate()
    return cfg


# -- column 1: wordcount on the threaded runtime ------------------------------


def run_wordcount_cell(
    placement: str, read: str, corpus_bytes: int = 20_000
) -> Dict[str, object]:
    """Word count through BSFS under one policy pair (threaded engine)."""
    from collections import Counter

    from ..apps import parse_counts, run_wordcount
    from ..blobseer.client import BlobSeerService
    from ..bsfs import BSFS
    from ..mapreduce import MapReduceCluster

    n_providers = 6
    names = [f"provider-{i:03d}" for i in range(n_providers)]
    # three racks of two: enough for rack-aware to bind with repl=2
    topology = {name: f"rack-{i % 3}" for i, name in enumerate(names)}
    obs = _obs()
    service = BlobSeerService(
        config=_policy_config(placement, read, page_size=4 * KiB),
        n_providers=n_providers,
        seed=11,
        obs=obs,
        topology=topology,
    )
    dep = BSFS(service=service, obs=obs)
    fs = dep.file_system()
    corpus = text_corpus(corpus_bytes, seed=9)
    fs.write_all("/in/doc", corpus)
    mr = MapReduceCluster(fs, hosts=names)
    t0 = time.perf_counter()
    result = run_wordcount(mr, ["/in/doc"], "/out", n_reducers=3)
    wall = time.perf_counter() - t0
    counts = parse_counts(
        b"".join(fs.read_all(p) for p in result.output_files)
    )
    correct = counts == dict(Counter(corpus.split()))
    snapshot = obs.registry.snapshot()["counters"]
    service.close()
    return {
        "ok": bool(correct),
        "wall_s": wall,
        "locality": mr.last_job.locality_fraction(),
        "imbalance": service.provider_manager.imbalance(),
        "quorum_reads": int(snapshot.get("placement.quorum_reads", 0)),
    }


# -- column 2: open-loop append burst on the DES ------------------------------


def _sim_deployment(placement: str, read: str, obs, **cfg_kw):
    from ..blobseer.simulated import BlobSeerRoles, SimBlobSeer
    from ..sim.cluster import SimCluster

    cluster = SimCluster(
        ClusterConfig(
            nodes=18, racks=3, rack_bandwidth=4 * 1150.0 * MiB, seed=5
        ),
        obs=obs,
    )
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:5]),
        data_providers=tuple(names[5:14]),
    )
    sb = SimBlobSeer(
        cluster, roles, _policy_config(placement, read, **cfg_kw), obs=obs
    )
    clients = list(names[14:18])
    return cluster, sb, clients


def run_append_cell(
    placement: str, read: str, appends_per_client: int = 6
) -> Dict[str, object]:
    """Concurrent appenders + read-back on the DES under one policy pair."""
    obs = _obs()
    cluster, sb, clients = _sim_deployment(placement, read, obs)
    env = cluster.env
    blob = sb.create_blob()
    nbytes = 4 * PAGE
    t0 = time.perf_counter()
    for client in clients:
        def burst(client=client):
            for _ in range(appends_per_client):
                yield from sb.append_proc(client, blob, nbytes)

        env.process(burst())
    env.run()
    total = len(clients) * appends_per_client * nbytes
    for client in clients:
        env.process(sb.read_proc(client, blob, 0, total))
    env.run()
    wall = time.perf_counter() - t0
    from .deploy import record_sim_counters

    record_sim_counters(cluster, obs)
    counters = obs.registry.snapshot()["counters"]
    sim_events = int(counters.get("sim.kernel.events", 0))
    # every policy must spread replicas across racks' worth of providers
    loads = sb.provider_manager.load_snapshot()
    return {
        "ok": all(v > 0 for v in loads.values()),
        "makespan_s": env.now,
        "wall_s": wall,
        "sim_events": sim_events,
        "events_per_s": sim_events / wall if wall > 0 else 0.0,
        "imbalance": sb.provider_manager.imbalance(),
        "quorum_reads": int(counters.get("placement.quorum_reads", 0)),
    }


# -- column 3: crash + adaptive re-replication --------------------------------


def run_chaos_cell(placement: str, read: str) -> Dict[str, object]:
    """Crash a replica holder under re-replication; the daemon must
    restore the live replica count and reads must keep succeeding."""
    from ..blobseer.client import BlobSeerService

    n_providers = 6
    names = [f"provider-{i:03d}" for i in range(n_providers)]
    topology = {name: f"rack-{i % 3}" for i, name in enumerate(names)}
    obs = _obs()
    service = BlobSeerService(
        config=_policy_config(
            placement,
            read,
            rereplication=True,
            hot_page_threshold=3,
            rereplication_max=3,
        ),
        n_providers=n_providers,
        seed=13,
        obs=obs,
        topology=topology,
    )
    client = service.client("chaos-client")
    blob = client.create_blob()
    payload = b"c" * (3 * PAGE)
    client.append(blob, payload)
    directory = service.protocol.directory
    page_ids = list(directory._pages)

    def live_counts() -> List[int]:
        return [
            sum(
                1
                for p in directory.providers_for(pid, ())
                if not service.engine.is_down(p)
            )
            for pid in page_ids
        ]

    before = min(live_counts())
    victim = directory.providers_for(page_ids[0], ())[0]
    service.fail_provider(victim)
    after_crash = min(live_counts())
    copies = service.rereplicate_once()
    after_repair = min(live_counts())
    read_ok = client.read(blob, 0, len(payload)) == payload
    counters = obs.registry.snapshot()["counters"]
    service.close()
    return {
        "ok": bool(read_ok and after_repair >= before),
        "replicas_before": before,
        "replicas_after_crash": after_crash,
        "replicas_after_repair": after_repair,
        "rereplications": copies,
        "quorum_reads": int(counters.get("placement.quorum_reads", 0)),
    }


# -- cross-engine smoke -------------------------------------------------------


def run_engine_smoke(
    placement: str = "rack_aware", read: str = "quorum"
) -> Dict[str, Dict[str, object]]:
    """The hardest policy pair end-to-end on DES, threaded, and asyncio."""
    import asyncio

    from ..blobseer.client import BlobSeerService
    from ..engine.aio import AsyncioEngine

    results: Dict[str, Dict[str, object]] = {}
    payload = b"e" * (2 * PAGE + 123)

    obs = _obs()
    cluster, sb, clients = _sim_deployment(placement, read, obs)
    env = cluster.env
    blob = sb.create_blob()
    env.run(env.process(sb.append_proc(clients[0], blob, len(payload))))
    version = env.run(
        env.process(sb.read_proc(clients[1], blob, 0, len(payload)))
    )
    results["des"] = {"ok": version == 1, "makespan_s": env.now}

    names = [f"provider-{i:03d}" for i in range(6)]
    topology = {name: f"rack-{i % 3}" for i, name in enumerate(names)}
    for engine_name in ("threaded", "asyncio"):
        engine = (
            AsyncioEngine(seed=3) if engine_name == "asyncio" else None
        )
        service = BlobSeerService(
            config=_policy_config(placement, read),
            n_providers=6,
            seed=3,
            engine=engine,
            topology=topology,
        )
        blob = service.version_manager.create_blob(PAGE)
        gen = service.protocol.append("client", blob, Payload(payload))
        if engine_name == "asyncio":
            version, _off = asyncio.run(service.engine.run(gen))
            _v, data = asyncio.run(
                service.engine.run(
                    service.protocol.read("client", blob, 0, len(payload))
                )
            )
        else:
            version, _off = service.engine.run(gen)
            _v, data = service.engine.run(
                service.protocol.read("client", blob, 0, len(payload))
            )
        results[engine_name] = {
            "ok": version == 1 and data == payload,
        }
        service.close()
    return results


# -- the matrix ---------------------------------------------------------------


def run_policy_matrix(scale: str = "quick") -> Dict[str, object]:
    """The full {placement} x {read} x {workload} grid, JSON-ready."""
    corpus_bytes = 20_000 if scale == "quick" else 120_000
    appends = 6 if scale == "quick" else 24
    cells: List[Dict[str, object]] = []
    for placement in PLACEMENT_POLICIES:
        for read in READ_POLICIES:
            cells.append(
                {
                    "placement": placement,
                    "read": read,
                    "wordcount": run_wordcount_cell(
                        placement, read, corpus_bytes=corpus_bytes
                    ),
                    "append": run_append_cell(
                        placement, read, appends_per_client=appends
                    ),
                    "chaos": run_chaos_cell(placement, read),
                }
            )
    return {
        "placement_policies": list(PLACEMENT_POLICIES),
        "read_policies": list(READ_POLICIES),
        "cells": cells,
        "engines": run_engine_smoke(),
    }


def matrix_text(doc: Dict[str, object]) -> str:
    """Human-readable grid summary for the CLI."""
    lines = ["placement      read    wc-ok locality  append-ok imbalance "
             "chaos-ok repaired"]
    for cell in doc["cells"]:
        wc, ap, ch = cell["wordcount"], cell["append"], cell["chaos"]
        lines.append(
            f"{cell['placement']:<14} {cell['read']:<7} "
            f"{str(wc['ok']):<5} {wc['locality']:<9.2f} "
            f"{str(ap['ok']):<9} {ap['imbalance']:<9.3f} "
            f"{str(ch['ok']):<8} "
            f"{ch['replicas_after_crash']}->{ch['replicas_after_repair']}"
        )
    engines = doc["engines"]
    lines.append(
        "engines (rack_aware+quorum): "
        + ", ".join(f"{k}={v['ok']}" for k, v in engines.items())
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: run the matrix, print the grid, optionally write JSON.

    Exits non-zero when any cell (or engine smoke) reports ``ok:
    false`` — the CI named gate."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick", choices=("quick", "paper"))
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    doc = run_policy_matrix(scale=args.scale)
    print(matrix_text(doc))
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")
        print(f"wrote {args.json}")
    ok = all(
        cell[col]["ok"]
        for cell in doc["cells"]
        for col in ("wordcount", "append", "chaos")
    ) and all(e["ok"] for e in doc["engines"].values())
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())

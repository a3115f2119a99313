"""Metadata-plane microbenchmarks — tree algebra throughput, no cluster.

The figure benches measure whole-stack wall time; the fig8 knee measures
simulated capacity. This module isolates the *in-process* cost of the
metadata tree algebra itself — the code every append and read runs
between engine ops — by driving
:mod:`repro.blobseer.metadata.segment_tree` against a bare
:class:`~repro.blobseer.metadata.dht.MetadataDHT`. Three scenarios:

* ``build`` — a long append history published one version at a time
  (the classic path): per-version tree builds over a growing capacity.
* ``query`` — random range reads against the history's final version:
  the read path's ``query_pages`` walk.
* ``batch`` — the same append history published in group-commit batches
  through :func:`~repro.blobseer.metadata.segment_tree.build_versions_batch`:
  the fast path's merged builds (fewer node writes for the same
  history; the ``node_ops`` field makes the saving visible).

The perf-smoke floors (``benchmarks/perf/``) call :func:`bench_metadata`
per scenario and gate it against ``baseline.json``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..blobseer.metadata.dht import MetadataDHT
from ..blobseer.metadata.segment_tree import (
    NodeKey,
    build_version,
    build_versions_batch,
    capacity_for,
    query_pages,
)
from ..blobseer.pages import Fragment, fresh_page_id
from .bench import best_of

#: appends in the benchmark history (final tree: ~8k pages, depth 13)
DEFAULT_VERSIONS = 2000

#: pages written per append — a few-page contiguous run, the shape the
#: open-loop experiment produces (1 MiB ops over sub-MiB pages)
PAGES_PER_APPEND = 4

#: range queries timed in the ``query`` scenario
DEFAULT_QUERIES = 4000

#: pages per timed range query
QUERY_SPAN = 64

#: versions per publish batch in the ``batch`` scenario
BATCH_SIZE = 8

#: metadata providers backing the benchmark DHT
N_PROVIDERS = 16

SCENARIOS = ("build", "query", "batch")


@dataclass(slots=True)
class MdBenchResult:
    """One scenario's best-of-repeats measurement."""

    scenario: str
    #: operations timed: versions published (build/batch) or queries run
    ops: int
    wall_s: float
    ops_per_s: float
    #: DHT node accesses (gets + puts) the scenario performed
    node_ops: int


def _changes(version: int, pages: range) -> Dict[int, Tuple[Fragment, ...]]:
    page_id = fresh_page_id(1, f"v{version}")
    return {
        p: (Fragment(0, 4096, page_id, 0, ("p0",)),) for p in pages
    }


def _history(n_versions: int) -> List[Tuple[int, Dict[int, tuple]]]:
    """The benchmark's append history: version v writes the contiguous
    run of ``PAGES_PER_APPEND`` pages starting where v-1 stopped."""
    out = []
    for v in range(1, n_versions + 1):
        start = (v - 1) * PAGES_PER_APPEND
        out.append((v, _changes(v, range(start, start + PAGES_PER_APPEND))))
    return out


def _node_ops(dht: MetadataDHT) -> int:
    return sum(dht.gets) + sum(dht.puts)


def _build_sequential(
    dht: MetadataDHT, history: Sequence[Tuple[int, Dict[int, tuple]]]
) -> NodeKey:
    root, cap = None, 0
    for v, changes in history:
        new_cap = capacity_for(v * PAGES_PER_APPEND)
        root = build_version(dht, 1, v, root, cap, changes, new_cap)
        cap = new_cap
    assert root is not None
    return root


def _run_scenario(scenario: str, n_versions: int) -> MdBenchResult:
    history = _history(n_versions)
    dht = MetadataDHT(N_PROVIDERS)
    ops_before = 0  # node ops outside the timed section (query's build)
    if scenario == "build":
        t0 = time.perf_counter()
        _build_sequential(dht, history)
        wall = time.perf_counter() - t0
        ops = n_versions
    elif scenario == "query":
        root = _build_sequential(dht, history)
        ops_before = _node_ops(dht)
        n_pages = n_versions * PAGES_PER_APPEND
        rng = random.Random(20100621)
        starts = [
            rng.randrange(0, max(1, n_pages - QUERY_SPAN))
            for _ in range(DEFAULT_QUERIES)
        ]
        t0 = time.perf_counter()
        for lo in starts:
            query_pages(dht, root, lo, lo + QUERY_SPAN)
        wall = time.perf_counter() - t0
        ops = DEFAULT_QUERIES
    elif scenario == "batch":
        t0 = time.perf_counter()
        root, cap = None, 0
        for i in range(0, len(history), BATCH_SIZE):
            batch = history[i : i + BATCH_SIZE]
            last_v = batch[-1][0]
            new_cap = capacity_for(last_v * PAGES_PER_APPEND)
            root = build_versions_batch(dht, 1, batch, root, cap, new_cap)
            cap = new_cap
        wall = time.perf_counter() - t0
        ops = n_versions
    else:
        raise ValueError(f"unknown metadata scenario {scenario!r}")
    return MdBenchResult(
        scenario=scenario,
        ops=ops,
        wall_s=wall,
        ops_per_s=ops / wall if wall > 0 else 0.0,
        node_ops=_node_ops(dht) - ops_before,
    )


def bench_metadata(
    scenario: str, n_versions: int = DEFAULT_VERSIONS, repeats: int = 3
) -> MdBenchResult:
    """Best-of-*repeats* throughput of one scenario (fresh DHT each)."""
    if n_versions < 1:
        raise ValueError("n_versions must be positive")
    return best_of(lambda: _run_scenario(scenario, n_versions), repeats)

"""Shuffle machinery: map-side partition/sort, reduce-side merge.

Map outputs are partitioned by the job's partitioner, sorted by key
within each partition (with the optional combiner applied to sorted
groups), and parked in a :class:`MapOutputStore` — the stand-in for the
tasktrackers' local disks that reducers fetch from. The reduce side
performs the classic k-way merge over one partition of every map output
and groups values by key.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..obs import NULL_OBS, Observability
from .job import Context, Counters, Partitioner, ReduceFunction

#: one map output partition: key-sorted (key, value) pairs
Partition = List[Tuple[Any, Any]]


class MapOutputStore:
    """Holds every map task's partitioned, sorted output until reducers
    fetch it (Hadoop: tasktracker-local files served over HTTP)."""

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._data: Dict[Tuple[int, int], Partition] = {}
        # secondary index so a discard doesn't scan every (map,
        # partition) entry under the lock
        self._by_map: Dict[int, Set[int]] = {}
        self._lock = threading.Lock()
        #: lifetime counter of stored bytes-ish (pair count)
        self.pairs_stored = 0
        obs = obs or NULL_OBS
        self._c_pairs_stored = obs.registry.counter("mr.shuffle.pairs_stored")
        self._c_pairs_fetched = obs.registry.counter("mr.shuffle.pairs_fetched")

    def put(self, map_id: int, partition: int, pairs: Partition) -> None:
        """Park one partition of one map task's output."""
        with self._lock:
            self._data[(map_id, partition)] = pairs
            self._by_map.setdefault(map_id, set()).add(partition)
            self.pairs_stored += len(pairs)
            self._c_pairs_stored.inc(float(len(pairs)))

    def get(self, map_id: int, partition: int) -> Partition:
        """Fetch one partition of one map task's output (empty if none)."""
        with self._lock:
            pairs = self._data.get((map_id, partition), [])
            self._c_pairs_fetched.inc(float(len(pairs)))
            return pairs

    def discard_map(self, map_id: int) -> None:
        """Drop a failed attempt's output before the retry re-stores it."""
        with self._lock:
            for partition in self._by_map.pop(map_id, ()):
                del self._data[(map_id, partition)]


def partition_and_sort(
    pairs: Iterable[Tuple[Any, Any]],
    partitioner: Partitioner,
    n_partitions: int,
    combiner: Optional[ReduceFunction] = None,
    counters: Optional[Counters] = None,
) -> Dict[int, Partition]:
    """Map-side shuffle step: bucket by partition, sort by key, combine.

    Returns only non-empty partitions. Keys must be mutually orderable
    (bytes/str/int in practice).
    """
    buckets: Dict[int, Partition] = {}
    for key, value in pairs:
        p = partitioner(key, n_partitions)
        if not (0 <= p < n_partitions):
            raise ValueError(
                f"partitioner returned {p} for {n_partitions} partitions"
            )
        buckets.setdefault(p, []).append((key, value))
    out: Dict[int, Partition] = {}
    for p, bucket in buckets.items():
        bucket.sort(key=lambda kv: kv[0])
        if combiner is not None:
            bucket = _combine(bucket, combiner, counters)
        out[p] = bucket
    return out


def _combine(
    bucket: Partition,
    combiner: ReduceFunction,
    counters: Optional[Counters],
) -> Partition:
    """Run the combiner over each key group of a sorted bucket."""
    combined: Partition = []
    ctx = Context(counters or Counters())
    ctx._bind(lambda k, v: combined.append((k, v)))
    for key, group in itertools.groupby(bucket, key=lambda kv: kv[0]):
        combiner(key, (v for _k, v in group), ctx)
    combined.sort(key=lambda kv: kv[0])
    return combined


def merge_sorted_partitions(
    partitions: List[Partition],
) -> Iterator[Tuple[Any, List[Any]]]:
    """K-way merge of sorted partitions, grouped by key.

    Yields ``(key, values)`` with values in merge order — the reducer's
    input contract.
    """
    merged = heapq.merge(*partitions, key=lambda kv: kv[0])
    for key, group in itertools.groupby(merged, key=lambda kv: kv[0]):
        yield key, [v for _k, v in group]

"""Tasktrackers: slot-bounded task execution.

One tasktracker per machine, each with a fixed number of map slots and
reduce slots (worker threads). Workers pull tasks from the
:class:`~repro.mapreduce.jobtracker.JobInProgress`, execute them against
the shared file system, and report success/failure; failed attempts are
retried by the jobtracker up to its attempt budget.

:func:`execute_map_task` and :func:`execute_reduce_task` are the one
per-task code: the pipelined framework's streaming workers
(:mod:`repro.mapreduce.pipeline`) run them over a record batch and a
partition.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Sequence, Tuple

from ..common.errors import TaskFailedError
from ..common.fs import FileSystem
from ..obs import NULL_OBS
from ..obs.tracer import Tracer
from .io.committers import OutputCommitter
from .io.input import make_record_reader
from .io.records import TextRecordWriter
from .job import Context, Counters, JobConf
from .jobtracker import JobInProgress
from .shuffle import MapOutputStore, merge_sorted_partitions, partition_and_sort

#: idle workers poll the jobtracker at this interval (seconds)
_POLL_INTERVAL = 0.002


def execute_map_task(
    conf: JobConf,
    counters: Counters,
    records: Iterable[Tuple[Any, Any]],
    store: MapOutputStore,
    map_id: int,
    split=None,
) -> None:
    """Run one map attempt over *records* (of input *split*, when it
    reads one): apply map, partition/sort, park the output in *store*
    as map *map_id*."""
    pairs: list = []
    ctx = Context(counters)
    ctx._bind(lambda k, v: pairs.append((k, v)))
    ctx.split = split
    n_records = 0
    for key, value in records:
        conf.map_fn(key, value, ctx)
        n_records += 1
    counters.increment("map_input_records", n_records)
    counters.increment("map_output_records", len(pairs))
    partitions = partition_and_sort(
        pairs, conf.partitioner, conf.n_reducers, conf.combiner_fn, counters
    )
    for p, bucket in partitions.items():
        store.put(map_id, p, bucket)


def execute_reduce_task(
    conf: JobConf,
    counters: Counters,
    store: MapOutputStore,
    map_ids: Sequence[int],
    committer: OutputCommitter,
    partition: int,
    attempt: int,
    tracer: Tracer = NULL_OBS.tracer,
) -> str:
    """Run one reduce attempt: fetch *partition* of every map in
    *map_ids* from *store* and merge them, apply reduce, write through
    the committer; returns the committed output path."""
    with tracer.span(
        "mr.shuffle_fetch", cat="mapreduce", partition=partition, n_maps=len(map_ids)
    ):
        partitions = [store.get(m, partition) for m in map_ids]
    stream = committer.open_task_output(partition, attempt)
    writer = TextRecordWriter(stream)
    ctx = Context(counters)
    ctx._bind(writer.write)
    try:
        n_groups = 0
        for key, values in merge_sorted_partitions(partitions):
            conf.reduce_fn(key, values, ctx)
            n_groups += 1
        writer.close()
    except BaseException:
        # abandon without publishing buffered output
        try:
            stream.discard()
        except Exception:
            pass
        raise
    counters.increment("reduce_input_groups", n_groups)
    counters.increment("reduce_output_records", writer.records)
    counters.increment("reduce_output_bytes", writer.bytes_written)
    return committer.commit_task(partition, attempt)


class TaskTracker:
    """One machine's worth of task slots, pulling from one job at a time."""

    def __init__(
        self,
        host: str,
        fs: FileSystem,
        map_slots: int,
        reduce_slots: int,
    ) -> None:
        if map_slots < 1 or reduce_slots < 1:
            raise ValueError("slot counts must be >= 1")
        self.host = host
        self.fs = fs
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self._crashed = threading.Event()
        #: lifetime counters
        self.maps_run = 0
        self.reduces_run = 0

    # -- fault injection -------------------------------------------------------

    @property
    def is_failed(self) -> bool:
        return self._crashed.is_set()

    def fail(self) -> None:
        """Fault injection: crash this tracker. Its workers stop claiming
        tasks; a task claimed but not yet finished is reported failed so
        the jobtracker re-queues it on surviving trackers. Tasks that
        already completed stay completed (map outputs live in the shared
        store, not on the tracker)."""
        self._crashed.set()

    def recover(self) -> None:
        """Bring the tracker back: workers spawned after this point run
        normally (workers that already exited are not restarted)."""
        self._crashed.clear()

    def run_job(self, jip: JobInProgress) -> list[threading.Thread]:
        """Spawn this tracker's worker threads for one job; returns them
        (the caller joins)."""
        threads = [
            threading.Thread(
                target=self._map_worker,
                args=(jip,),
                name=f"{self.host}-map-{i}",
                daemon=True,
            )
            for i in range(self.map_slots)
        ] + [
            threading.Thread(
                target=self._reduce_worker,
                args=(jip,),
                name=f"{self.host}-reduce-{i}",
                daemon=True,
            )
            for i in range(self.reduce_slots)
        ]
        for t in threads:
            t.start()
        return threads

    def _map_worker(self, jip: JobInProgress) -> None:
        while not jip.is_complete:
            if self.is_failed:
                return
            task = jip.next_map_task(self.host)
            if task is None:
                if jip.maps_done:
                    return
                time.sleep(_POLL_INTERVAL)
                continue
            if self.is_failed:
                # crashed between claiming and executing: hand the task back
                jip.map_failed(
                    task, TaskFailedError(f"tasktracker {self.host} crashed")
                )
                return
            try:
                with jip.obs.tracer.span(
                    "mr.map_task",
                    cat="mapreduce",
                    track=self.host,
                    task=task.task_id,
                    attempt=task.attempts,
                    data_local=task.data_local,
                ):
                    execute_map_task(
                        jip.conf,
                        jip.counters,
                        make_record_reader(self.fs, task.split, jip.conf.input_format),
                        jip.map_outputs,
                        task.task_id,
                        split=task.split,
                    )
            except Exception as exc:
                jip.map_failed(task, exc)
            else:
                jip.map_succeeded(task)
                self.maps_run += 1

    def _reduce_worker(self, jip: JobInProgress) -> None:
        while not jip.is_complete:
            if self.is_failed:
                return
            task = jip.next_reduce_task(self.host)
            if task is None:
                time.sleep(_POLL_INTERVAL)
                continue
            if self.is_failed:
                jip.reduce_failed(
                    task, TaskFailedError(f"tasktracker {self.host} crashed")
                )
                return
            try:
                with jip.obs.tracer.span(
                    "mr.reduce_task",
                    cat="mapreduce",
                    track=self.host,
                    task=task.task_id,
                    attempt=task.attempts,
                ):
                    path = execute_reduce_task(
                        jip.conf,
                        jip.counters,
                        jip.map_outputs,
                        [m.task_id for m in jip.map_tasks],
                        jip.committer,
                        task.partition,
                        task.attempts,
                        jip.obs.tracer,
                    )
            except Exception as exc:
                jip.committer.abort_task(task.partition, task.attempts)
                jip.reduce_failed(task, exc)
            else:
                jip.reduce_succeeded(task, path)
                self.reduces_run += 1

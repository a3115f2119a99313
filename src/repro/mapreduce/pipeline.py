"""Pipelined Map/Reduce — the paper's §5 proposal, implemented.

"Based on the use of BSFS as a storage layer, our improved Hadoop
framework can further be optimized for the case of Map/Reduce
applications that are executed in pipeline. For this type of
applications, the mappers and the reducers belonging to distinct stages
of the pipeline can concurrently be executed: the reducers generate the
data and append it to a file that is at the same time read and
processed by the mappers."

Two execution modes:

* :func:`run_pipeline` with ``overlap=False`` — classic staging: stage
  *k+1* starts only after stage *k* commits (works on any file system);
* ``overlap=True`` — stage *k+1*'s map phase *streams* records out of
  stage *k*'s shared output file while stage *k*'s reducers are still
  appending to it. This requires a storage layer with concurrent
  append + read-your-growth semantics, i.e. BSFS; the reader follows
  the file via the namespace size exactly as the paper's
  microbenchmarks (Figures 4/5) show is cheap.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..common.errors import JobFailedError, MapReduceError
from ..common.fs import FileSystem
from .io.committers import make_committer
from .job import Context, Counters, JobConf, Partitioner, default_partitioner
from .runner import MapReduceCluster
from .shuffle import MapOutputStore
from .tasktracker import execute_map_task, execute_reduce_task

#: streaming feeder batch size (records per mini-split)
_BATCH_RECORDS = 2000
#: first feeder sleep when the upstream file has not grown; doubles on
#: every idle poll up to :data:`_TAIL_MAX_INTERVAL`, resets on data
_TAIL_INTERVAL = 0.0005
#: backoff cap — keeps the tail latency bounded near stage handoff
_TAIL_MAX_INTERVAL = 0.016


@dataclass(slots=True)
class PipelineStage:
    """One stage of the pipeline (a Map/Reduce job minus its input)."""

    name: str
    map_fn: Callable[[Any, Any, Context], None]
    reduce_fn: Callable[[Any, Any, Context], None]
    n_reducers: int = 1
    combiner_fn: Optional[Callable] = None
    partitioner: Partitioner = default_partitioner
    #: input format of the *first* stage only; later stages always read
    #: the previous stage's text output as (offset, line) records
    input_format: str = "text"


@dataclass(slots=True)
class PipelineResult:
    """What a pipeline run returns."""

    stage_outputs: List[List[str]]
    elapsed_seconds: float
    overlapped: bool
    counters: List[dict] = field(default_factory=list)


def _stage_conf(
    stage: PipelineStage,
    input_paths: List[str],
    output_dir: str,
    output_mode: str,
    input_format: str,
) -> JobConf:
    return JobConf(
        name=stage.name,
        input_paths=input_paths,
        output_dir=output_dir,
        map_fn=stage.map_fn,
        reduce_fn=stage.reduce_fn,
        combiner_fn=stage.combiner_fn,
        partitioner=stage.partitioner,
        n_reducers=stage.n_reducers,
        input_format=input_format,
        output_mode=output_mode,
    )


def run_pipeline(
    cluster: MapReduceCluster,
    stages: Sequence[PipelineStage],
    input_paths: List[str],
    base_dir: str,
    output_mode: str = "shared",
    overlap: bool = False,
) -> PipelineResult:
    """Run *stages* in sequence over *input_paths*.

    With ``overlap=True`` every stage after the first streams from its
    predecessor's shared output file while the predecessor is still
    running; ``output_mode`` must then be ``"shared"``.
    """
    if not stages:
        raise MapReduceError("empty pipeline")
    if overlap and output_mode != "shared":
        raise MapReduceError("overlapped pipelines require shared output files")
    start = time.perf_counter()
    if not overlap:
        outputs: List[List[str]] = []
        counters: List[dict] = []
        paths = list(input_paths)
        for i, stage in enumerate(stages):
            conf = _stage_conf(
                stage,
                paths,
                f"{base_dir.rstrip('/')}/stage-{i:02d}",
                output_mode,
                stage.input_format if i == 0 else "text",
            )
            result = cluster.run_job(conf)
            outputs.append(result.output_files)
            counters.append(result.counters)
            paths = result.output_files
        return PipelineResult(
            stage_outputs=outputs,
            elapsed_seconds=time.perf_counter() - start,
            overlapped=False,
            counters=counters,
        )

    # ---- overlapped execution -------------------------------------------------
    outputs = [[] for _ in stages]
    counters = [{} for _ in stages]
    errors: List[BaseException] = []
    done_flags = [threading.Event() for _ in stages]

    def run_first() -> None:
        try:
            conf = _stage_conf(
                stages[0],
                list(input_paths),
                f"{base_dir.rstrip('/')}/stage-00",
                "shared",
                stages[0].input_format,
            )
            result = cluster.run_job(conf)
            outputs[0] = result.output_files
            counters[0] = result.counters
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append(exc)
        finally:
            done_flags[0].set()

    threads = [threading.Thread(target=run_first, name="stage-00", daemon=True)]
    for i in range(1, len(stages)):

        def run_streaming(i: int = i) -> None:
            try:
                upstream = f"{base_dir.rstrip('/')}/stage-{i - 1:02d}/part-shared"
                out = _run_streaming_stage(
                    cluster.fs,
                    stages[i],
                    upstream,
                    f"{base_dir.rstrip('/')}/stage-{i:02d}",
                    upstream_done=done_flags[i - 1],
                    map_workers=max(
                        2, cluster.config.map_slots * len(cluster.tasktrackers) // 2
                    ),
                )
                outputs[i], counters[i] = out
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done_flags[i].set()

        threads.append(
            threading.Thread(target=run_streaming, name=f"stage-{i:02d}", daemon=True)
        )
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise JobFailedError(f"pipeline failed: {errors[0]!r}") from errors[0]
    return PipelineResult(
        stage_outputs=outputs,
        elapsed_seconds=time.perf_counter() - start,
        overlapped=True,
        counters=counters,
    )


def _run_streaming_stage(
    fs: FileSystem,
    stage: PipelineStage,
    upstream_path: str,
    output_dir: str,
    upstream_done: threading.Event,
    map_workers: int,
) -> Tuple[List[str], dict]:
    """Stage *k+1*: map workers consume the growing upstream file, then a
    standard shuffle/reduce produces this stage's shared output. The
    workers run the tasktracker's per-task code over a record batch and
    a partition; the first failure of the feeder or of any worker fails
    the stage with :class:`JobFailedError`."""
    conf = _stage_conf(stage, [upstream_path], output_dir, "shared", "text")
    counters = Counters()
    store = MapOutputStore()
    batches: "queue.Queue" = queue.Queue(maxsize=64)
    errors: List[BaseException] = []

    def guarded(task: Callable[..., Any], *args: Any) -> None:
        # a task's failure is the stage's, raised once every thread is done
        try:
            task(*args)
        except Exception as exc:
            errors.append(exc)

    def feeder() -> None:
        """Tail the upstream shared file, batching complete lines, until
        the upstream stage is done or this stage has failed.

        Idle polls sleep with capped exponential backoff (reset whenever
        bytes arrive) instead of a fixed interval, and every poll bumps
        the ``tail_polls`` job counter so pipeline stalls show up in the
        result's counters.
        """
        backoff = _TAIL_INTERVAL

        def tail_sleep() -> None:
            nonlocal backoff
            counters.increment("tail_polls")
            time.sleep(backoff)
            backoff = min(backoff * 2, _TAIL_MAX_INTERVAL)

        while not fs.exists(upstream_path):
            if upstream_done.is_set():
                # upstream failed before creating its output
                raise JobFailedError(f"{upstream_path} never appeared")
            tail_sleep()
        stream = fs.open(upstream_path)
        pos = 0
        pending = b""
        batch: List[bytes] = []
        batch_id = 0
        while not errors:
            piece = stream.pread(pos, 1 << 20)
            if piece:
                backoff = _TAIL_INTERVAL
                pos += len(piece)
                pending += piece
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    batch.append(line)
                    if len(batch) >= _BATCH_RECORDS:
                        batches.put((batch_id, batch))
                        batch_id += 1
                        batch = []
                continue
            if upstream_done.is_set():
                # one final check: the size may have grown after the
                # last read but before the flag was set
                piece = stream.pread(pos, 1 << 20)
                if piece:
                    backoff = _TAIL_INTERVAL
                    pos += len(piece)
                    pending += piece
                    *lines, pending = pending.split(b"\n")
                    batch.extend(lines)
                    continue
                break
            tail_sleep()
        if pending:
            batch.append(pending)
        if batch:
            batches.put((batch_id, batch))
        stream.close()

    def feed() -> None:
        guarded(feeder)
        for _ in range(map_workers):
            batches.put(None)

    def map_worker() -> None:
        # a worker keeps draining after a failure, so the feeder never
        # blocks on a full queue
        while (item := batches.get()) is not None:
            if not errors:
                batch_id, lines = item
                guarded(
                    execute_map_task, conf, counters, enumerate(lines), store, batch_id
                )

    threads = [threading.Thread(target=feed, name="feeder", daemon=True)] + [
        threading.Thread(target=map_worker, name=f"smap-{i}", daemon=True)
        for i in range(map_workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if not errors:
        # standard reduce over the streamed map output
        committer = make_committer("shared", fs, output_dir)
        committer.setup_job()
        map_ids = store.map_ids()
        reducers = [
            threading.Thread(
                target=guarded,
                args=(
                    execute_reduce_task, conf, counters, store, map_ids,
                    committer, p, 1,
                ),
                name=f"sred-{p}",
            )
            for p in range(stage.n_reducers)
        ]
        for r in reducers:
            r.start()
        for r in reducers:
            r.join()
    if errors:
        raise JobFailedError(
            f"streaming stage {stage.name!r} failed: {errors[0]!r}"
        ) from errors[0]
    committer.cleanup_job()
    return committer.output_files(), counters.snapshot()

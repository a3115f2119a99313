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
* ``overlap=True`` — every stage is a job on the cluster's
  tasktrackers from the start, run together with the others. Stage
  *k+1* starts with an open input that a feeder fills from stage *k*'s
  shared output file while stage *k*'s reducers still append to it:
  on every reduce completion upstream, the feeder adds splits over the
  new whole lines. This requires a storage layer with concurrent
  append + read-your-growth semantics, i.e. BSFS. A streamed stage
  thereby has what a staged one has: retries, tracker-crash requeue,
  slots, locality and ``(byte offset, line)`` records.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..common.errors import MapReduceError
from ..common.fs import FileSystem, InputStream
from .io.input import range_splits
from .job import Context, JobConf, Partitioner, default_partitioner
from .jobtracker import JobInProgress
from .runner import MapReduceCluster

#: the feeder looks for the last newline in pieces of this size
_SCAN_CHUNK = 4096


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
    index: int,
    input_paths: List[str],
    base_dir: str,
    output_mode: str,
) -> JobConf:
    return JobConf(
        name=stage.name,
        input_paths=input_paths,
        output_dir=f"{base_dir.rstrip('/')}/stage-{index:02d}",
        map_fn=stage.map_fn,
        reduce_fn=stage.reduce_fn,
        combiner_fn=stage.combiner_fn,
        partitioner=stage.partitioner,
        n_reducers=stage.n_reducers,
        input_format=stage.input_format if index == 0 else "text",
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
    paths = list(input_paths)
    if overlap:
        # every job is built up front, so each upstream shared file exists
        # before its consumer validates its input
        jobs: List[JobInProgress] = []
        for i, stage in enumerate(stages):
            conf = _stage_conf(stage, i, paths, base_dir, output_mode)
            jobs.append(
                JobInProgress(
                    conf, cluster.fs, cluster.config, obs=cluster.obs,
                    open_input=i > 0,
                )
            )
            paths = jobs[-1].committer.output_files()
        feeders = [
            threading.Thread(
                target=_feed,
                args=(cluster.fs, upstream, jip),
                name=f"feed-{jip.conf.name}",
                daemon=True,
            )
            for upstream, jip in zip(jobs, jobs[1:])
        ]
        for t in feeders:
            t.start()
        try:
            results = cluster.run_jobs(jobs)
        finally:
            for t in feeders:
                t.join()
    else:
        results = []
        for i, stage in enumerate(stages):
            results.append(
                cluster.run_job(_stage_conf(stage, i, paths, base_dir, output_mode))
            )
            paths = results[-1].output_files
    return PipelineResult(
        stage_outputs=[r.output_files for r in results],
        elapsed_seconds=time.perf_counter() - start,
        overlapped=overlap,
        counters=[r.counters for r in results],
    )


def _feed(fs: FileSystem, upstream: JobInProgress, jip: JobInProgress) -> None:
    """Fill *jip*'s open input from *upstream*'s shared output file.

    After every reduce completion upstream, add splits over the file's
    new bytes up to the newline ending its last whole line: the line
    reader's boundary rule gives that line to the split ending on its
    newline and skips it in the next, so no line is cut however the
    file grows afterwards. Every reducer's append ends with a newline,
    so once every upstream reduce has succeeded the splits cover the
    whole file and the input closes; if upstream fails, *jip* fails
    with it.
    """
    [path] = jip.conf.input_paths
    split_size = jip.conf.split_size or fs.get_status(path).block_size
    n_reduces = len(upstream.reduce_tasks)
    failure = None
    try:
        with fs.open(path) as stream:
            offset = reduced = 0
            while reduced < n_reduces:
                reduced = upstream.await_reduces(reduced)
                end = _last_newline(stream, offset, fs.get_status(path).size)
                if end > offset:
                    jip.add_splits(range_splits(fs, path, offset, end, split_size))
                    offset = end
    except Exception as exc:
        failure = f"feeding from {upstream.conf.name!r} failed: {exc!r}"
    finally:
        jip.close_input(failure)


def _last_newline(stream: InputStream, offset: int, end: int) -> int:
    """Position of the last ``\n`` in ``[offset, end)``; *offset* if none.
    Holes (a reducer died holding its range) read as zeros, never a
    newline: the scan skips them as the line reader does."""
    while end > offset:
        start = max(offset, end - _SCAN_CHUNK)
        nl = stream.pread_holes(start, end - start)[0].rfind(b"\n")
        if nl >= 0:
            return start + nl
        end = start
    return offset

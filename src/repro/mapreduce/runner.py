"""The cluster-level entry point: submit a job, run it to completion.

:class:`MapReduceCluster` stands in for "a single master jobtracker, and
multiple slave tasktrackers, one per node": it owns the tasktrackers,
drives a :class:`~repro.mapreduce.jobtracker.JobInProgress` with real
threads, and returns a :class:`~repro.mapreduce.job.JobResult`.

The tasktrackers' hosts should be the same machine names the storage
layer reports in its block locations (co-deployment of tasktrackers
with datanodes/providers, as in the paper's setup) — that is what makes
locality-aware scheduling meaningful.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..common.config import MapReduceConfig
from ..common.fs import FileSystem
from ..obs import NULL_OBS, Observability
from .job import JobConf, JobResult
from .jobtracker import JobInProgress
from .tasktracker import TaskTracker


class MapReduceCluster:
    """A jobtracker plus its tasktrackers over one file system."""

    def __init__(
        self,
        fs: FileSystem,
        hosts: Optional[Sequence[str]] = None,
        n_tasktrackers: int = 4,
        config: Optional[MapReduceConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.fs = fs
        self.obs = obs or NULL_OBS
        self.config = config or MapReduceConfig()
        self.config.validate()
        if hosts is None:
            hosts = [f"tracker-{i:03d}" for i in range(n_tasktrackers)]
        if not hosts:
            raise ValueError("need at least one tasktracker host")
        self.tasktrackers = [
            TaskTracker(
                host,
                fs,
                map_slots=self.config.map_slots,
                reduce_slots=self.config.reduce_slots,
            )
            for host in hosts
        ]
        #: the most recent job's in-progress state (introspection/tests)
        self.last_job: Optional[JobInProgress] = None

    def run_job(self, conf: JobConf) -> JobResult:
        """Run *conf* to completion; raises
        :class:`~repro.common.errors.JobFailedError` when a task exhausts
        its retries."""
        start = time.perf_counter()
        sp = self.obs.tracer.start(
            "mr.job", cat="mapreduce", track="jobtracker", job=conf.name
        )
        jip = JobInProgress(conf, self.fs, self.config, obs=self.obs)
        self.last_job = jip
        threads: List = []
        for tracker in self.tasktrackers:
            threads.extend(tracker.run_job(jip))
        for t in threads:
            t.join()
        output_files = jip.finish()
        sp.finish(
            n_maps=len(jip.map_tasks),
            n_reduces=len(jip.reduce_tasks),
            locality=jip.locality_fraction(),
        )
        self.obs.registry.gauge("mr.locality_fraction").set(
            jip.locality_fraction()
        )
        elapsed = time.perf_counter() - start
        return JobResult(
            job_name=conf.name,
            output_files=output_files,
            counters=jip.counters.snapshot(),
            n_map_tasks=len(jip.map_tasks),
            n_reduce_tasks=len(jip.reduce_tasks),
            elapsed_seconds=elapsed,
        )

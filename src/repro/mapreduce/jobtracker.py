"""The jobtracker: job state, task bookkeeping, scheduling decisions.

"The framework consists of a single master jobtracker, and multiple
slave tasktrackers, one per node. A Map/Reduce job is split into a set
of tasks, which are executed by the tasktrackers, as assigned by the
jobtracker." Reduce tasks become runnable only "after all the maps have
finished", as in the paper's Hadoop.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..common.config import MapReduceConfig
from ..common.errors import JobFailedError, TaskFailedError
from ..common.fs import FileSystem
from ..obs import NULL_OBS, Observability
from .io.committers import OutputCommitter, make_committer
from .io.input import FileSplit, compute_splits
from .job import Counters, JobConf
from .scheduler import pick_map_task, pick_reduce_task
from .shuffle import MapOutputStore
from .task import MapTaskInfo, ReduceTaskInfo, TaskState

#: attempts before a task, and with it the job, is declared failed
#: (Hadoop's default budget)
MAX_TASK_ATTEMPTS = 4


class JobInProgress:
    """One submitted job's complete runtime state (thread-safe)."""

    def __init__(
        self,
        conf: JobConf,
        fs: FileSystem,
        config: MapReduceConfig,
        obs: Optional[Observability] = None,
    ) -> None:
        conf.validate(fs)
        self.conf = conf
        self.fs = fs
        self.config = config
        self.obs = obs or NULL_OBS
        self._c_maps_local = self.obs.registry.counter("mr.maps_local")
        self._c_maps_remote = self.obs.registry.counter("mr.maps_remote")
        self._c_map_failures = self.obs.registry.counter("mr.map_failures")
        self._c_reduce_failures = self.obs.registry.counter("mr.reduce_failures")
        self.counters = Counters()
        self.map_outputs = MapOutputStore(obs=self.obs)
        self.committer: OutputCommitter = make_committer(
            conf.output_mode, fs, conf.output_dir
        )
        self.committer.setup_job()
        # empty inputs are degenerate but legal: a job with zero map tasks
        splits = compute_splits(fs, conf.input_paths, conf.split_size)
        self.map_tasks: List[MapTaskInfo] = [
            MapTaskInfo(task_id=i, split=s) for i, s in enumerate(splits)
        ]
        self.reduce_tasks: List[ReduceTaskInfo] = [
            ReduceTaskInfo(task_id=r, partition=r)
            for r in range(conf.n_reducers)
        ]
        self._lock = threading.Lock()
        self._failed: Optional[str] = None

    # -- state queries ----------------------------------------------------------

    @property
    def maps_done(self) -> bool:
        with self._lock:
            return all(
                t.state is TaskState.SUCCEEDED for t in self.map_tasks
            )

    @property
    def is_complete(self) -> bool:
        with self._lock:
            return self._failed is not None or (
                all(t.state is TaskState.SUCCEEDED for t in self.map_tasks)
                and all(t.state is TaskState.SUCCEEDED for t in self.reduce_tasks)
            )

    @property
    def failure(self) -> Optional[str]:
        with self._lock:
            return self._failed

    def locality_fraction(self) -> float:
        """Fraction of map tasks that ran data-local (scheduler quality)."""
        with self._lock:
            done = [t for t in self.map_tasks if t.state is TaskState.SUCCEEDED]
            if not done:
                return 0.0
            return sum(1 for t in done if t.data_local) / len(done)

    # -- scheduling -----------------------------------------------------------------

    def next_map_task(self, host: str) -> Optional[MapTaskInfo]:
        """Claim a map task for a tasktracker on *host* (None: nothing now)."""
        with self._lock:
            if self._failed:
                return None
            task = pick_map_task(
                self.map_tasks, host, self.config.locality_aware
            )
            if task is None:
                return None
            task.state = TaskState.RUNNING
            task.assigned_to = host
            task.attempts += 1
            task.data_local = host in task.split.hosts
            (self._c_maps_local if task.data_local else self._c_maps_remote).inc()
            return task

    def next_reduce_task(self, host: str) -> Optional[ReduceTaskInfo]:
        """Claim a reduce task; only once every map has succeeded."""
        with self._lock:
            if self._failed:
                return None
            if not all(t.state is TaskState.SUCCEEDED for t in self.map_tasks):
                return None
            task = pick_reduce_task(self.reduce_tasks)
            if task is None:
                return None
            task.state = TaskState.RUNNING
            task.assigned_to = host
            task.attempts += 1
            return task

    # -- completion reports ------------------------------------------------------------

    def map_succeeded(self, task: MapTaskInfo) -> None:
        with self._lock:
            task.state = TaskState.SUCCEEDED

    def map_failed(self, task: MapTaskInfo, error: Exception) -> None:
        """Re-queue the attempt or fail the job when retries are exhausted."""
        self._c_map_failures.inc()
        with self._lock:
            self.map_outputs.discard_map(task.task_id)
            if task.attempts >= MAX_TASK_ATTEMPTS:
                task.state = TaskState.FAILED
                self._failed = (
                    f"map task {task.task_id} failed "
                    f"{task.attempts} times: {error!r}"
                )
            else:
                task.state = TaskState.PENDING

    def reduce_succeeded(self, task: ReduceTaskInfo, output_path: str) -> None:
        with self._lock:
            task.state = TaskState.SUCCEEDED
            task.output_path = output_path

    def reduce_failed(self, task: ReduceTaskInfo, error: Exception) -> None:
        self._c_reduce_failures.inc()
        with self._lock:
            if task.attempts >= MAX_TASK_ATTEMPTS:
                task.state = TaskState.FAILED
                self._failed = (
                    f"reduce task {task.task_id} failed "
                    f"{task.attempts} times: {error!r}"
                )
            else:
                task.state = TaskState.PENDING

    # -- finalization ------------------------------------------------------------------

    def finish(self) -> List[str]:
        """Cleanup and return output files; raises on a failed job."""
        with self._lock:
            if self._failed:
                raise JobFailedError(f"job {self.conf.name!r}: {self._failed}")
            self.committer.cleanup_job()
            return self.committer.output_files()

"""The jobtracker: job state, task bookkeeping, scheduling decisions.

"The framework consists of a single master jobtracker, and multiple
slave tasktrackers, one per node. A Map/Reduce job is split into a set
of tasks, which are executed by the tasktrackers, as assigned by the
jobtracker." Reduce tasks become runnable only "after all the maps have
finished", as in the paper's Hadoop.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

from ..common.config import MapReduceConfig
from ..common.errors import JobFailedError
from ..common.fs import FileSystem
from ..obs import NULL_OBS, Observability
from .io.committers import OutputCommitter, make_committer
from .io.input import FileSplit, compute_splits
from .job import Counters, JobConf
from .scheduler import pick_map_task, pick_reduce_task
from .shuffle import MapOutputStore
from .task import MapTaskInfo, ReduceTaskInfo, TaskState

if TYPE_CHECKING:
    from .tasktracker import TaskTracker

#: attempts before a task, and with it the job, is declared failed
#: (Hadoop's default budget)
MAX_TASK_ATTEMPTS = 4


class JobInProgress:
    """One submitted job's complete runtime state (thread-safe).

    Every change to it happens under one :class:`threading.Condition`,
    and each one a waiter may be waiting for notifies it: a completion,
    a failure, an added split, a closed input, a tracker crash, the last
    worker leaving. Claims block on it until a task becomes claimable
    and return None once none will, so an idle tasktracker worker waits
    for an event, never a timer.

    A job built with ``open_input=True`` starts with no map tasks: a
    feeder adds splits (:meth:`add_splits`) while the file they cut is
    still growing, then calls :meth:`close_input`. Reduces become
    claimable once the input is closed and every map has succeeded.
    """

    def __init__(
        self,
        conf: JobConf,
        fs: FileSystem,
        config: MapReduceConfig,
        obs: Optional[Observability] = None,
        open_input: bool = False,
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
        #: the job's totals: each successful attempt's counters, merged once
        self.counters = Counters()
        self.map_outputs = MapOutputStore(obs=self.obs)
        self.committer: OutputCommitter = make_committer(
            conf.output_mode, fs, conf.output_dir
        )
        self.committer.setup_job()
        # empty inputs are degenerate but legal: a job with zero map tasks
        splits = (
            [] if open_input
            else compute_splits(fs, conf.input_paths, conf.split_size)
        )
        self.map_tasks: List[MapTaskInfo] = [
            MapTaskInfo(task_id=i, split=s) for i, s in enumerate(splits)
        ]
        self.reduce_tasks: List[ReduceTaskInfo] = [
            ReduceTaskInfo(task_id=r, partition=r)
            for r in range(conf.n_reducers)
        ]
        self._cond = threading.Condition()
        self._failed: Optional[str] = None
        self._input_open = open_input
        #: enlisted workers still running; the last to leave an
        #: unfinished job fails it
        self._workers = 0

    # -- state queries (the caller holds ``_cond``) --------------------------------

    def _maps_done(self) -> bool:
        return not self._input_open and all(
            t.state is TaskState.SUCCEEDED for t in self.map_tasks
        )

    def _reduced(self) -> int:
        return sum(t.state is TaskState.SUCCEEDED for t in self.reduce_tasks)

    def _finished(self) -> bool:
        return self._reduced() == len(self.reduce_tasks) and self._maps_done()

    def _raise_if_failed(self) -> None:
        if self._failed:
            raise JobFailedError(f"job {self.conf.name!r}: {self._failed}")

    def locality_fraction(self) -> float:
        """Fraction of map tasks that ran data-local (scheduler quality)."""
        with self._cond:
            done = [t for t in self.map_tasks if t.state is TaskState.SUCCEEDED]
            if not done:
                return 0.0
            return sum(1 for t in done if t.data_local) / len(done)

    # -- workers ------------------------------------------------------------------

    def enlist(self, n_workers: int) -> None:
        """Count *n_workers* more workers in, before any of them starts."""
        with self._cond:
            self._workers += n_workers

    def leave(self) -> None:
        """A worker is done with this job. The last one to leave a job
        that is not finished fails it: no live worker is left to finish
        it (every tasktracker crashed)."""
        with self._cond:
            self._workers -= 1
            if not (self._workers or self._failed or self._finished()):
                self._failed = "no live tasktracker is left to finish it"
                self._cond.notify_all()

    def wake(self) -> None:
        """Wake every blocked claim to re-check its tracker (a crash)."""
        with self._cond:
            self._cond.notify_all()

    # -- input -----------------------------------------------------------------------

    def add_splits(self, splits: List[FileSplit]) -> None:
        """Add one map task per split to an open input."""
        with self._cond:
            assert self._input_open, "input already closed"
            self.map_tasks.extend(
                MapTaskInfo(task_id=i, split=s)
                for i, s in enumerate(splits, start=len(self.map_tasks))
            )
            self._cond.notify_all()

    def close_input(self, failure: Optional[str] = None) -> None:
        """No more splits will come; with *failure*, the job fails."""
        with self._cond:
            self._input_open = False
            if failure and not self._failed:
                self._failed = failure
            self._cond.notify_all()

    def await_reduces(self, seen: int) -> int:
        """Block until more than *seen* reduce tasks have succeeded and
        return how many have; raises
        :class:`~repro.common.errors.JobFailedError` once the job failed."""
        with self._cond:
            self._cond.wait_for(lambda: self._failed or self._reduced() > seen)
            self._raise_if_failed()
            return self._reduced()

    # -- scheduling -----------------------------------------------------------------

    def next_map_task(self, tracker: TaskTracker) -> Optional[MapTaskInfo]:
        """Claim a map task for *tracker*, blocking until one is pending.
        None once none will be: every map has succeeded and the input is
        closed, the job has failed, or *tracker* has crashed."""
        with self._cond:
            while not (self._failed or tracker.is_failed or self._maps_done()):
                task = pick_map_task(
                    self.map_tasks, tracker.host, self.config.locality_aware
                )
                if task is None:
                    self._cond.wait()
                    continue
                task.state = TaskState.RUNNING
                task.assigned_to = tracker.host
                task.attempts += 1
                task.data_local = tracker.host in task.split.hosts
                (self._c_maps_local if task.data_local else self._c_maps_remote).inc()
                return task
            return None

    def next_reduce_task(self, tracker: TaskTracker) -> Optional[ReduceTaskInfo]:
        """Claim a reduce task for *tracker*, blocking until every map has
        succeeded and a reduce is pending. None once none will be: every
        reduce has succeeded, the job has failed, or *tracker* crashed."""
        with self._cond:
            while not (self._failed or tracker.is_failed or self._finished()):
                task = None
                if self._maps_done():
                    task = pick_reduce_task(self.reduce_tasks)
                if task is None:
                    self._cond.wait()
                    continue
                task.state = TaskState.RUNNING
                task.assigned_to = tracker.host
                task.attempts += 1
                return task
            return None

    # -- completion reports ------------------------------------------------------------

    def map_succeeded(self, task: MapTaskInfo, counters: Counters) -> None:
        """Mark *task* done and add its attempt's *counters* to the job's."""
        with self._cond:
            task.state = TaskState.SUCCEEDED
            self.counters.merge(counters)
            self._cond.notify_all()

    def map_failed(self, task: MapTaskInfo, error: Exception) -> None:
        """Re-queue the attempt or fail the job when retries are exhausted."""
        self._c_map_failures.inc()
        with self._cond:
            self.map_outputs.discard_map(task.task_id)
            if task.attempts >= MAX_TASK_ATTEMPTS:
                task.state = TaskState.FAILED
                self._failed = (
                    f"map task {task.task_id} failed "
                    f"{task.attempts} times: {error!r}"
                )
            else:
                task.state = TaskState.PENDING
            self._cond.notify_all()

    def reduce_succeeded(
        self, task: ReduceTaskInfo, output_path: str, counters: Counters
    ) -> None:
        """Mark *task* done and add its attempt's *counters* to the job's."""
        with self._cond:
            task.state = TaskState.SUCCEEDED
            task.output_path = output_path
            self.counters.merge(counters)
            self._cond.notify_all()

    def reduce_failed(self, task: ReduceTaskInfo, error: Exception) -> None:
        self._c_reduce_failures.inc()
        with self._cond:
            if task.attempts >= MAX_TASK_ATTEMPTS:
                task.state = TaskState.FAILED
                self._failed = (
                    f"reduce task {task.task_id} failed "
                    f"{task.attempts} times: {error!r}"
                )
            else:
                task.state = TaskState.PENDING
            self._cond.notify_all()

    # -- finalization ------------------------------------------------------------------

    def finish(self) -> List[str]:
        """Cleanup and return output files; raises on a failed job."""
        with self._cond:
            self._raise_if_failed()
            self.committer.cleanup_job()
            return self.committer.output_files()

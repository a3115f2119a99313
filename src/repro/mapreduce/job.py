"""Job model: configuration, counters, results.

A job is configured Hadoop-style: input paths, an output directory, a
``map(key, value, context)`` function, a ``reduce(key, values,
context)`` function, optional combiner and partitioner, and the number
of reduce tasks. The paper's two framework variants are selected by
``output_mode``:

* ``"separate"`` — the original Hadoop behaviour (Figure 1): each
  reducer writes a distinct ``part-NNNNN`` file via a temporary path
  renamed at commit;
* ``"shared"`` — the modified framework (Figure 2): every reducer
  appends its output to one shared file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..common.errors import JobConfigurationError
from ..common.fs import FileSystem

#: map signature: (key, value, MapContext) -> None
MapFunction = Callable[[Any, Any, "Context"], None]
#: reduce signature: (key, values-iterator, ReduceContext) -> None
ReduceFunction = Callable[[Any, Iterable[Any], "Context"], None]
#: partitioner: (key, n_partitions) -> partition index
Partitioner = Callable[[Any, int], int]


def default_partitioner(key: Any, n_partitions: int) -> int:
    """Hash partitioning, Hadoop's default."""
    return hash(key) % n_partitions


class Context:
    """What map/reduce functions see: an ``emit``/``write`` sink, the
    counters of this task attempt, and (in map tasks) the input split
    being processed — the hook tagged-join applications use to tell
    their sources apart."""

    def __init__(self, counters: "Counters") -> None:
        self.counters = counters
        self._sink: Optional[Callable[[Any, Any], None]] = None
        #: the FileSplit a map task is reading (None in reduce tasks)
        self.split: Any = None

    def _bind(self, sink: Callable[[Any, Any], None]) -> None:
        self._sink = sink

    def emit(self, key: Any, value: Any) -> None:
        """Emit one output pair."""
        assert self._sink is not None, "context not bound to a task"
        self._sink(key, value)

    # Hadoop spells it write(); keep both
    write = emit


class Counters:
    """Named counters of one task attempt, or a job's totals.

    Each attempt counts into its own object on its worker thread; the
    job adds an attempt's counters to its totals (:meth:`merge`, under
    the job's condition) only when the attempt succeeds, so a failed or
    re-queued attempt counts nothing. No two threads touch one object at
    once, so there is no lock."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def merge(self, other: "Counters") -> None:
        """Add *other*'s counts to these."""
        for name, amount in other._values.items():
            self.increment(name, amount)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._values)


@dataclass(slots=True)
class JobConf:
    """Everything needed to run one Map/Reduce job."""

    name: str
    input_paths: List[str]
    output_dir: str
    map_fn: MapFunction
    reduce_fn: ReduceFunction
    n_reducers: int = 1
    combiner_fn: Optional[ReduceFunction] = None
    partitioner: Partitioner = default_partitioner
    #: "separate" (original Hadoop, Fig. 1) or "shared" (modified, Fig. 2)
    output_mode: str = "separate"
    #: input format name: "text" (offset, line) or "kv" (tab-separated)
    input_format: str = "text"
    #: desired split size; None = the storage layer's block size
    split_size: Optional[int] = None

    def validate(self, fs: FileSystem) -> None:
        if not self.input_paths:
            raise JobConfigurationError("no input paths")
        if self.n_reducers < 1:
            raise JobConfigurationError("n_reducers must be >= 1")
        if self.output_mode not in ("separate", "shared"):
            raise JobConfigurationError(
                f"unknown output_mode {self.output_mode!r}"
            )
        if self.input_format not in ("text", "kv"):
            raise JobConfigurationError(
                f"unknown input_format {self.input_format!r}"
            )
        for path in self.input_paths:
            if not fs.exists(path):
                raise JobConfigurationError(f"input path missing: {path}")
        if fs.exists(self.output_dir):
            raise JobConfigurationError(
                f"output directory already exists: {self.output_dir}"
            )


@dataclass(slots=True)
class JobResult:
    """What :meth:`~repro.mapreduce.runner.MapReduceCluster.run_job` returns."""

    job_name: str
    output_files: List[str]
    counters: Dict[str, int]
    n_map_tasks: int
    n_reduce_tasks: int
    elapsed_seconds: float

    @property
    def output_file_count(self) -> int:
        """The file-count-problem metric of the paper's Figure 1 vs 2."""
        return len(self.output_files)

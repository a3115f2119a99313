"""Output committers — where the paper modifies Hadoop.

* :class:`SeparateFileCommitter` is the original framework (Figure 1):
  "when a tasktracker executes the 'reduce' function …, the output is
  written to a temporary file; each temporary file has a unique name …
  When the 'reduce' phase is completed, each reducer renames the
  temporary file to the final output directory". The job ends with one
  ``part-NNNNN`` file per reducer.

* :class:`SharedAppendCommitter` is the modified framework (Figure 2):
  "We modified the reducer code to append the output it produces to a
  single file, instead of writing it to a distinct file". Every reducer
  opens an append stream on the same shared file; the storage layer must
  therefore support concurrent appends (BSFS does; HDFS raises
  ``AppendNotSupportedError``, surfacing exactly why the paper needs
  BlobSeer).
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, List, Tuple

from ...common.fs import FileSystem, OutputStream, join_path


class OutputCommitter(abc.ABC):
    """Lifecycle hooks around each reducer's output."""

    def __init__(self, fs: FileSystem, output_dir: str) -> None:
        self.fs = fs
        self.output_dir = output_dir

    @abc.abstractmethod
    def setup_job(self) -> None:
        """Prepare the output directory before any reducer runs."""

    @abc.abstractmethod
    def open_task_output(self, partition: int, attempt: int) -> OutputStream:
        """The stream reducer *partition* (attempt *attempt*) writes to."""

    @abc.abstractmethod
    def commit_task(self, partition: int, attempt: int) -> str:
        """Make the task's output final; returns the committed path."""

    @abc.abstractmethod
    def abort_task(self, partition: int, attempt: int) -> None:
        """Discard a failed attempt's partial output."""

    @abc.abstractmethod
    def cleanup_job(self) -> None:
        """Remove scratch state after the last commit."""

    @abc.abstractmethod
    def output_files(self) -> List[str]:
        """The committed output paths, sorted."""


class SeparateFileCommitter(OutputCommitter):
    """Original Hadoop: temp file per attempt, commit-by-rename."""

    TEMP_DIR = "_temporary"

    def setup_job(self) -> None:
        self.fs.mkdirs(self.output_dir)
        self.fs.mkdirs(self._temp_dir())

    def _temp_dir(self) -> str:
        return join_path(self.output_dir, self.TEMP_DIR)

    def _temp_path(self, partition: int, attempt: int) -> str:
        # unique name per attempt, as in Hadoop's attempt directories
        return join_path(
            self._temp_dir(), f"attempt_{partition:05d}_{attempt}", "part"
        )

    def _final_path(self, partition: int) -> str:
        return join_path(self.output_dir, f"part-{partition:05d}")

    def open_task_output(self, partition: int, attempt: int) -> OutputStream:
        return self.fs.create(self._temp_path(partition, attempt), overwrite=True)

    def commit_task(self, partition: int, attempt: int) -> str:
        final = self._final_path(partition)
        self.fs.rename(self._temp_path(partition, attempt), final)
        return final

    def abort_task(self, partition: int, attempt: int) -> None:
        self.fs.delete(
            join_path(self._temp_dir(), f"attempt_{partition:05d}_{attempt}"),
            recursive=True,
        )

    def cleanup_job(self) -> None:
        self.fs.delete(self._temp_dir(), recursive=True)

    def output_files(self) -> List[str]:
        return sorted(
            s.path
            for s in self.fs.list_dir(self.output_dir)
            if not s.is_directory and s.path.rsplit("/", 1)[-1].startswith("part-")
        )


class _BufferedTaskOutput(OutputStream):
    """Buffer-until-close wrapper enforcing attempt atomicity.

    An underlying append stream may ship full pages mid-stream (the BSFS
    write-behind buffer holds only up to ``page_size``), which would let
    a failed attempt leak a prefix into the shared file. This wrapper
    holds the attempt's *entire* output and only opens the append stream
    at close, so an attempt contributes either everything or nothing.
    """

    def __init__(self, committer: "SharedAppendCommitter") -> None:
        super().__init__(committer.shared_path())
        self._fs = committer.fs
        self._chunks: List[bytes] = []
        self._written = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def write(self, data: bytes) -> int:
        with self._lock:
            self._check_open()
            self._chunks.append(bytes(data))
            self._written += len(data)
            return len(data)

    def flush(self) -> None:
        # intentionally a no-op: emitting bytes before close would break
        # the abort-containment invariant this wrapper exists to enforce
        self._check_open()

    def tell(self) -> int:
        with self._lock:
            return self._written

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            data = b"".join(self._chunks)
            self._chunks.clear()
        if data:
            stream = self._fs.append(self.path)
            try:
                stream.write(data)
            finally:
                stream.close()

    def discard(self) -> None:
        with self._lock:
            self._closed = True
            self._chunks.clear()


class SharedAppendCommitter(OutputCommitter):
    """Modified Hadoop: all reducers append to one shared output file.

    The shared file is created once at job setup; each reducer's stream
    is an append stream on it. Commit is a no-op — the data is already
    in its final place the moment the appends complete, which is exactly
    the simplification the paper highlights ("at the end of the
    computation data is already available in a single logical file").

    Failure containment: each attempt's stream buffers its whole output
    and emits one atomic append at close (:class:`_BufferedTaskOutput`);
    :meth:`abort_task` before that point discards the buffer, so a failed
    or re-tried attempt contributes nothing until it closes successfully.
    """

    SHARED_NAME = "part-shared"

    def __init__(self, fs: FileSystem, output_dir: str) -> None:
        super().__init__(fs, output_dir)
        self._lock = threading.Lock()
        self._open: Dict[Tuple[int, int], _BufferedTaskOutput] = {}

    def setup_job(self) -> None:
        self.fs.mkdirs(self.output_dir)
        # create the (empty) shared file all reducers will append to
        self.fs.create(self.shared_path(), overwrite=True).close()

    def shared_path(self) -> str:
        """Path of the single shared output file."""
        return join_path(self.output_dir, self.SHARED_NAME)

    def open_task_output(self, partition: int, attempt: int) -> OutputStream:
        # surface missing append support at open time, not at close
        # (HDFS raises AppendNotSupportedError here — the paper's point)
        self.fs.append(self.shared_path()).discard()
        stream = _BufferedTaskOutput(self)
        with self._lock:
            self._open[(partition, attempt)] = stream
        return stream

    def commit_task(self, partition: int, attempt: int) -> str:
        with self._lock:
            stream = self._open.pop((partition, attempt), None)
        if stream is not None and not stream.closed:
            raise ValueError(
                f"commit of attempt ({partition}, {attempt}) before its "
                f"output stream was closed"
            )
        return self.shared_path()

    def abort_task(self, partition: int, attempt: int) -> None:
        with self._lock:
            stream = self._open.pop((partition, attempt), None)
        if stream is not None:
            stream.discard()

    def cleanup_job(self) -> None:
        return

    def output_files(self) -> List[str]:
        return [self.shared_path()]


def make_committer(mode: str, fs: FileSystem, output_dir: str) -> OutputCommitter:
    """Committer factory keyed by :attr:`JobConf.output_mode`."""
    if mode == "separate":
        return SeparateFileCommitter(fs, output_dir)
    if mode == "shared":
        return SharedAppendCommitter(fs, output_dir)
    raise ValueError(f"unknown output mode {mode!r}")

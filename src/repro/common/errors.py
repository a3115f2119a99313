"""Error hierarchy shared by every subsystem of the reproduction.

The tree mirrors the layering of the stack: storage-level failures
(BlobSeer / HDFS) are distinct from namespace-level failures (BSFS /
namenode) and from framework-level failures (Map/Reduce), so callers can
catch at the altitude they care about.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------
# storage layer
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for data-plane failures (providers, datanodes, pages)."""


class PageNotFoundError(StorageError):
    """A page id was requested from a provider that does not hold it."""


class ProviderUnavailableError(StorageError):
    """A provider/datanode was unreachable or declared failed."""


class RpcTimeoutError(StorageError):
    """An RPC to a crashed or unreachable node timed out.

    Raised by the engines' data-plane primitives so the shared protocol
    cores see one failure shape under both runtimes: the DES engine
    charges the timeout in simulated time, the threaded engine maps a
    provider's refusal onto it immediately.
    """


class ReplicationError(StorageError):
    """Fewer replicas than required could be written."""


class CorruptPageError(StorageError):
    """A persisted page failed its CRC check on read."""


class OutOfRangeReadError(StorageError):
    """A read extends past the end of the addressed BLOB version / file."""


# --------------------------------------------------------------------------
# BLOB / version layer
# --------------------------------------------------------------------------

class BlobError(ReproError):
    """Base class for BLOB-level failures."""


class BlobNotFoundError(BlobError):
    """No BLOB is registered under the given id."""


class VersionNotFoundError(BlobError):
    """The requested version number has not been published for this BLOB."""


class VersionNotReadyError(BlobError):
    """The version exists but has not yet been published (still pending)."""


class AppendAbortedError(BlobError):
    """The version's append ticket expired and the version was aborted.

    Raised when a client tries to commit a version whose lease lapsed:
    the version manager has already published it as a zero-length hole
    so later appenders could make progress.
    """


# --------------------------------------------------------------------------
# namespace / file-system layer
# --------------------------------------------------------------------------

class FileSystemError(ReproError):
    """Base class for namespace-level failures."""


class FileNotFoundInNamespaceError(FileSystemError):
    """Path lookup failed."""


class FileAlreadyExistsError(FileSystemError):
    """Exclusive create on an existing path."""


class NotADirectoryError_(FileSystemError):
    """A path component that must be a directory is a file."""


class IsADirectoryError_(FileSystemError):
    """A data operation was attempted on a directory."""


class DirectoryNotEmptyError(FileSystemError):
    """Non-recursive delete of a non-empty directory."""


class AppendNotSupportedError(FileSystemError):
    """The file system does not implement append.

    Raised by the HDFS reimplementation: the paper notes the append call
    exists in the Hadoop ``FileSystem`` interface "but is not implemented
    in the latest Hadoop release available".
    """


class ConcurrentWriteError(FileSystemError):
    """A second writer attempted to open a file HDFS-style (single writer)."""


class FileClosedError(FileSystemError):
    """I/O on a closed stream."""


class ImmutableFileError(FileSystemError):
    """Write/append to a closed HDFS file (write-once-read-many model)."""


class LeaseExpiredError(FileSystemError):
    """The writer's lease on a file lapsed before the operation."""


# --------------------------------------------------------------------------
# Map/Reduce framework
# --------------------------------------------------------------------------

class MapReduceError(ReproError):
    """Base class for framework-level failures."""


class JobConfigurationError(MapReduceError):
    """A job was submitted with an invalid or incomplete configuration."""


class TaskFailedError(MapReduceError):
    """A task exhausted its retry budget."""


class JobFailedError(MapReduceError):
    """The job as a whole failed."""


# --------------------------------------------------------------------------
# simulation kernel
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for discrete-event-simulation kernel failures."""


class SimDeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""

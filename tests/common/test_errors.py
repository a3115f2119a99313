"""The error hierarchy: catching at the right altitude must work."""

import pytest

from repro.common import errors as E


@pytest.mark.parametrize(
    "child,parent",
    [
        (E.PageNotFoundError, E.StorageError),
        (E.ProviderUnavailableError, E.StorageError),
        (E.ReplicationError, E.StorageError),
        (E.CorruptPageError, E.StorageError),
        (E.OutOfRangeReadError, E.StorageError),
        (E.BlobNotFoundError, E.BlobError),
        (E.VersionNotFoundError, E.BlobError),
        (E.VersionNotReadyError, E.BlobError),
        (E.FileNotFoundInNamespaceError, E.FileSystemError),
        (E.FileAlreadyExistsError, E.FileSystemError),
        (E.AppendNotSupportedError, E.FileSystemError),
        (E.ConcurrentWriteError, E.FileSystemError),
        (E.ImmutableFileError, E.FileSystemError),
        (E.DirectoryNotEmptyError, E.FileSystemError),
        (E.JobConfigurationError, E.MapReduceError),
        (E.TaskFailedError, E.MapReduceError),
        (E.JobFailedError, E.MapReduceError),
        (E.SimDeadlockError, E.SimulationError),
    ],
)
def test_child_of(child, parent):
    assert issubclass(child, parent)
    assert issubclass(parent, E.ReproError)


def test_layers_are_disjoint():
    """A storage error is not a file-system error and vice versa, so a
    caller catching one layer never swallows the other."""
    assert not issubclass(E.StorageError, E.FileSystemError)
    assert not issubclass(E.FileSystemError, E.StorageError)
    assert not issubclass(E.MapReduceError, E.FileSystemError)
    assert not issubclass(E.SimulationError, E.StorageError)


def test_catching_base_catches_everything():
    with pytest.raises(E.ReproError):
        raise E.AppendNotSupportedError("no append here")
    with pytest.raises(E.ReproError):
        raise E.SimDeadlockError("stuck")

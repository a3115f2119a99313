"""Tests for the FileSystem base-class conveniences (shared by HDFS and
BSFS through the abstract interface)."""

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig


@pytest.fixture()
def fs():
    return BSFS(
        config=BlobSeerConfig(page_size=512, metadata_providers=2), n_providers=3
    ).file_system()


def test_write_all_read_all(fs):
    fs.write_all("/f", b"payload" * 300)
    assert fs.read_all("/f") == b"payload" * 300


def test_file_size(fs):
    fs.write_all("/f", b"x" * 123)
    assert fs.file_size("/f") == 123


def test_stream_context_managers(fs):
    with fs.create("/cm") as out:
        out.write(b"managed")
    with fs.open("/cm") as stream:
        assert stream.read(100) == b"managed"


def test_figures_scale_validation():
    from repro.experiments.figures import fig3

    with pytest.raises(ValueError):
        fig3(scale="galactic")

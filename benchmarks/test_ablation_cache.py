"""ABLATION — the BSFS client cache (whole-block prefetch + write-behind).

The paper adds the cache because "Map/Reduce applications usually
process data in small records (4KB)". This ablation measures the real
(threaded) runtime doing 4 KB-record sequential reads and writes with
the cache enabled vs disabled: the cache turns thousands of per-record
BlobSeer round trips into a handful of block operations.
"""

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.units import KiB

BLOCK = 64 * KiB
FILE_SIZE = 16 * BLOCK
RECORD = 4 * KiB


def make_fs(cache_enabled: bool):
    dep = BSFS(
        config=BlobSeerConfig(
            page_size=BLOCK, metadata_providers=4, cache_enabled=cache_enabled
        ),
        n_providers=4,
    )
    return dep.file_system("bench")


def write_records(fs) -> int:
    """Write the file in 4 KB records; returns BLOB appends issued."""
    with fs.create("/data") as out:
        for _ in range(FILE_SIZE // RECORD):
            out.write(b"r" * RECORD)
        issued = out.appends_issued
    return issued + 1  # + the close flush


def read_records(fs) -> int:
    """Read the file back in 4 KB records; returns BlobSeer fetches."""
    with fs.open("/data") as stream:
        while stream.read(RECORD):
            pass
        return stream._core.fetches


@pytest.mark.benchmark(group="ablation-cache-write")
def test_write_behind_enabled(benchmark):
    appends = benchmark.pedantic(
        lambda: write_records(make_fs(True)), rounds=1, iterations=1
    )
    # one append per 64 KiB block (+1 for the flush at close)
    assert appends <= FILE_SIZE // BLOCK + 1


@pytest.mark.benchmark(group="ablation-cache-write")
def test_write_behind_disabled(benchmark):
    appends = benchmark.pedantic(
        lambda: write_records(make_fs(False)), rounds=1, iterations=1
    )
    # one BLOB append (and one version!) per 4 KiB record
    assert appends >= FILE_SIZE // RECORD


@pytest.mark.benchmark(group="ablation-cache-read")
def test_prefetch_enabled(benchmark):
    fs = make_fs(True)
    write_records(fs)
    fetches = benchmark.pedantic(lambda: read_records(fs), rounds=1, iterations=1)
    assert fetches <= FILE_SIZE // BLOCK + 1


@pytest.mark.benchmark(group="ablation-cache-read")
def test_prefetch_disabled(benchmark):
    fs = make_fs(False)
    write_records(fs)
    fetches = benchmark.pedantic(lambda: read_records(fs), rounds=1, iterations=1)
    assert fetches >= FILE_SIZE // RECORD

"""Cross-stack durability: a full Map/Reduce job over BSFS whose
providers persist through the log-structured store, then a simulated
whole-cluster restart — the job's output must be re-readable from disk
alone, through a fresh provider generation."""

from pathlib import Path

import pytest

from repro.apps import parse_counts, run_wordcount
from repro.blobseer import BlobSeerService, LogStructuredPageStore, Provider
from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.mapreduce import MapReduceCluster
from repro.workloads import text_corpus


@pytest.fixture()
def store_dir(tmp_path):
    return tmp_path / "providers"


def make_service(store_dir: Path) -> BlobSeerService:
    return BlobSeerService(
        BlobSeerConfig(
            page_size=4096,
            metadata_providers=2,
            page_store_backend="log",
            page_store_dir=str(store_dir),
        ),
        n_providers=4,
    )


def test_job_output_survives_provider_restart(store_dir):
    svc = make_service(store_dir)
    dep = BSFS(service=svc)
    fs = dep.file_system("mr")
    corpus = text_corpus(30_000, seed=17)
    fs.write_all("/in/doc", corpus)
    cluster = MapReduceCluster(fs, hosts=list(svc.providers))
    result = run_wordcount(
        cluster, ["/in/doc"], "/out", n_reducers=3, output_mode="shared"
    )
    expected = parse_counts(fs.read_all(result.output_files[0]))
    assert expected  # sanity

    # "restart": throw away every provider's in-memory object and rebuild
    # from the on-disk logs (metadata/namespace survive at the managers)
    for name, provider in list(svc.providers.items()):
        provider.store.close()
        svc.providers[name] = Provider(
            name, LogStructuredPageStore(store_dir / f"{name}.log")
        )

    fresh = dep.file_system("after-restart")
    assert parse_counts(fresh.read_all("/out/part-shared")) == expected
    assert fresh.read_all("/in/doc") == corpus
    svc.close()


def test_crash_during_append_leaves_committed_data_intact(store_dir):
    svc = make_service(store_dir)
    dep = BSFS(service=svc)
    fs = dep.file_system("w")
    fs.write_all("/log", b"committed-before\n")

    # tear a random provider log (simulated crash mid-write of a later,
    # never-committed page)
    victim = next(iter(svc.providers.values()))
    victim.store.close()
    log_path = store_dir / f"{victim.name}.log"
    with open(log_path, "ab") as fp:
        fp.write(b"\xff\xfe torn partial record from the crash")
    svc.providers[victim.name] = Provider(
        victim.name, LogStructuredPageStore(log_path)
    )

    fresh = dep.file_system("r")
    assert fresh.read_all("/log") == b"committed-before\n"
    svc.close()


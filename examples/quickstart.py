#!/usr/bin/env python3
"""Quickstart: BSFS in five minutes.

Creates an in-process BSFS deployment (BlobSeer providers + version
manager + metadata DHT + namespace manager), demonstrates the thing HDFS
cannot do — many clients appending to ONE file concurrently — and then
runs a word-count Map/Reduce job whose reducers all append to a single
shared output file (the paper's modified framework).

Run:  python examples/quickstart.py
"""

import threading

from repro.apps import parse_counts, run_wordcount
from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.mapreduce import MapReduceCluster


def main() -> None:
    # --- a small BSFS deployment (64 KiB pages for demo speed) -------------
    deployment = BSFS(
        config=BlobSeerConfig(page_size=64 * 1024, metadata_providers=4),
        n_providers=6,
    )
    fs = deployment.file_system("quickstart")

    # --- ordinary file I/O ---------------------------------------------------
    fs.mkdirs("/demo")
    fs.write_all("/demo/hello.txt", b"hello, BlobSeer file system!\n")
    print("read back:", fs.read_all("/demo/hello.txt").decode().strip())

    # --- the headline feature: concurrent appends to a shared file ----------
    fs.create("/demo/shared.log").close()

    def appender(worker_id: int) -> None:
        worker_fs = deployment.file_system(f"worker-{worker_id}")
        with worker_fs.append("/demo/shared.log") as stream:
            for i in range(5):
                stream.write(f"worker={worker_id} record={i}\n".encode())

    threads = [threading.Thread(target=appender, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    lines = fs.read_all("/demo/shared.log").splitlines()
    print(f"shared log: {len(lines)} records from 8 concurrent appenders")
    assert len(lines) == 40

    # every record arrived intact (no interleaving inside a record)
    assert all(line.startswith(b"worker=") for line in lines)

    # BlobSeer versioning: the file's history is still addressable
    blob_id = deployment.namespace.get("/demo/shared.log").blob_id
    versions = deployment.service.version_manager.latest_published(blob_id).version
    print(f"the shared log went through {versions} versions")

    # --- the modified Map/Reduce framework -----------------------------------
    fs.write_all(
        "/demo/corpus.txt",
        b"the quick brown fox jumps over the lazy dog\n" * 200,
    )
    cluster = MapReduceCluster(
        fs, hosts=[f"provider-{i:03d}" for i in range(6)]
    )
    result = run_wordcount(
        cluster,
        ["/demo/corpus.txt"],
        "/demo/wordcount",
        n_reducers=4,
        output_mode="shared",  # Figure 2: all reducers append to one file
    )
    print(
        f"word count used {result.n_reduce_tasks} reducers but produced "
        f"{result.output_file_count} output file: {result.output_files[0]}"
    )
    counts = parse_counts(fs.read_all(result.output_files[0]))
    print("counts:", {k.decode(): v for k, v in sorted(counts.items())})
    assert counts[b"the"] == 400


if __name__ == "__main__":
    main()

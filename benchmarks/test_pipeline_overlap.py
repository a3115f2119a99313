"""PIPE — the paper's §5 proposal, measured: a two-stage Map/Reduce
pipeline where stage 2's mappers read the shared file stage 1's reducers
are still appending to.

Measures wall-clock of sequential vs overlapped execution on the real
(threaded) runtime and verifies the overlap is sound (identical output)
and does not cost time.
"""

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.mapreduce import MapReduceCluster, PipelineStage, run_pipeline
from repro.workloads import text_corpus


def line_map(off, line, ctx):
    ctx.emit(line, 1)


def count_red(k, vs, ctx):
    ctx.emit(k, sum(vs))


def weighted_wc_map(off, line, ctx):
    text, n = line.rsplit(b"\t", 1)
    n = int(n)
    for w in text.split():
        ctx.emit(w, n)


#: both stages read every line of the corpus: stage 1 counts each
#: distinct line (nearly all are), so its output is as large as its
#: input, and stage 2 counts the words of those lines. A stage then runs
#: for over a second on CORPUS_BYTES, long enough that scheduling noise
#: cannot move the overlapped/sequential ratio past its bound (0.4 MB of
#: word counts over a 20-word vocabulary made ~0.15 s and ~0.01 s stages)
STAGES = [
    PipelineStage("lines", line_map, count_red, n_reducers=4, combiner_fn=count_red),
    PipelineStage(
        "wordcount", weighted_wc_map, count_red, n_reducers=2, combiner_fn=count_red
    ),
]

#: ~1.1 s per stage on a 2-vCPU guest
CORPUS_BYTES = 3_000_000


def make_env():
    dep = BSFS(
        config=BlobSeerConfig(page_size=8192, metadata_providers=4), n_providers=6
    )
    fs = dep.file_system("bench")
    fs.write_all("/in/doc", text_corpus(CORPUS_BYTES, seed=13))
    cluster = MapReduceCluster(fs, hosts=[f"provider-{i:03d}" for i in range(6)])
    return fs, cluster


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_sequential(benchmark):
    fs, cluster = make_env()
    counter = [0]

    def run():
        counter[0] += 1
        return run_pipeline(
            cluster, STAGES, ["/in/doc"], f"/seq-{counter[0]}", overlap=False
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.stage_outputs) == 2


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_overlapped(benchmark):
    fs, cluster = make_env()
    seq = run_pipeline(cluster, STAGES, ["/in/doc"], "/seq", overlap=False)
    counter = [0]

    def run():
        counter[0] += 1
        return run_pipeline(
            cluster, STAGES, ["/in/doc"], f"/ov-{counter[0]}", overlap=True
        )

    ov = benchmark.pedantic(run, rounds=1, iterations=1)
    # soundness: overlapped output == sequential output
    a = fs.read_all(seq.stage_outputs[-1][0])
    b = fs.read_all(ov.stage_outputs[-1][0])
    assert sorted(a.splitlines()) == sorted(b.splitlines())
    # the overlap must not be slower than staging (generous margin for
    # scheduling noise on a loaded machine)
    assert ov.elapsed_seconds <= seq.elapsed_seconds * 1.5

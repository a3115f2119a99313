"""Tests for pipelined Map/Reduce (the paper's §5 future work)."""

import threading

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.errors import JobFailedError, MapReduceError
from repro.mapreduce import MapReduceCluster, PipelineStage, run_pipeline
from repro.workloads import text_corpus


def wc_map(off, line, ctx):
    for w in line.split():
        ctx.emit(w, 1)


def wc_red(k, vs, ctx):
    ctx.emit(k, sum(vs))


def count_map(off, line, ctx):
    _w, c = line.split(b"\t")
    ctx.emit(b"total", int(c))


def count_red(k, vs, ctx):
    ctx.emit(k, sum(vs))


@pytest.fixture()
def env():
    dep = BSFS(
        config=BlobSeerConfig(page_size=4096, metadata_providers=2), n_providers=4
    )
    fs = dep.file_system("pipe")
    fs.write_all("/in/doc", text_corpus(30_000, seed=3))
    cluster = MapReduceCluster(
        fs, hosts=[f"provider-{i:03d}" for i in range(4)]
    )
    return fs, cluster


def run_bounded(*args, timeout=60, **kwargs):
    """``run_pipeline`` in a thread joined with a timeout, so a wedged
    pipeline fails the test instead of hanging the suite. Returns what
    it returned or raised."""
    out = {}

    def target():
        try:
            out["result"] = run_pipeline(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_pipeline did not return"
    return out


STAGES = [
    PipelineStage("wordcount", wc_map, wc_red, n_reducers=3, combiner_fn=wc_red),
    PipelineStage("total", count_map, count_red, n_reducers=1),
]


class TestSequential:
    def test_two_stage_chain(self, env):
        fs, cluster = env
        result = run_pipeline(cluster, STAGES, ["/in/doc"], "/seq", overlap=False)
        assert not result.overlapped
        assert len(result.stage_outputs) == 2
        total = fs.read_all(result.stage_outputs[-1][0])
        # total word count equals corpus word count
        n_words = len(fs.read_all("/in/doc").split())
        assert total == b"total\t%d\n" % n_words

    def test_separate_mode_many_files(self, env):
        fs, cluster = env
        result = run_pipeline(
            cluster, STAGES, ["/in/doc"], "/sep", output_mode="separate"
        )
        assert len(result.stage_outputs[0]) == 3  # one per reducer

    def test_empty_pipeline_rejected(self, env):
        _fs, cluster = env
        with pytest.raises(MapReduceError):
            run_pipeline(cluster, [], ["/in/doc"], "/x")


class TestOverlapped:
    def test_overlap_equals_sequential_output(self, env):
        fs, cluster = env
        seq = run_pipeline(cluster, STAGES, ["/in/doc"], "/a", overlap=False)
        ov = run_pipeline(cluster, STAGES, ["/in/doc"], "/b", overlap=True)
        assert ov.overlapped
        a = fs.read_all(seq.stage_outputs[-1][0])
        b = fs.read_all(ov.stage_outputs[-1][0])
        assert sorted(a.splitlines()) == sorted(b.splitlines())

    def test_three_stage_overlap(self, env):
        fs, cluster = env

        def ident_map(off, line, ctx):
            ctx.emit(line.split(b"\t")[0], line)

        def ident_red(k, vs, ctx):
            for v in vs:
                ctx.emit(k, b"seen")

        stages = STAGES + [PipelineStage("ident", ident_map, ident_red, n_reducers=1)]
        result = run_pipeline(cluster, stages, ["/in/doc"], "/c", overlap=True)
        out = fs.read_all(result.stage_outputs[-1][0])
        assert out == b"total\tseen\n"

    def test_overlap_requires_shared_mode(self, env):
        _fs, cluster = env
        with pytest.raises(MapReduceError):
            run_pipeline(
                cluster, STAGES, ["/in/doc"], "/d",
                output_mode="separate", overlap=True,
            )

    def test_overlap_counters(self, env):
        _fs, cluster = env
        result = run_pipeline(cluster, STAGES, ["/in/doc"], "/e", overlap=True)
        assert result.counters[1]["map_input_records"] > 0

    def test_upstream_failure_propagates(self, env):
        _fs, cluster = env

        def broken_map(off, line, ctx):
            raise RuntimeError("stage-0 is broken")

        stages = [
            PipelineStage("broken", broken_map, wc_red, n_reducers=1),
            PipelineStage("downstream", count_map, count_red, n_reducers=1),
        ]
        with pytest.raises(JobFailedError):
            run_pipeline(cluster, stages, ["/in/doc"], "/f", overlap=True)

    @pytest.mark.parametrize("broken", ["map", "reduce"])
    def test_downstream_failure_propagates(self, env, broken):
        """A failing streamed stage fails the pipeline (its workers'
        errors used to die with their threads)."""
        _fs, cluster = env

        def boom(*_args):
            raise RuntimeError(f"stage-1 {broken} is broken")

        stages = [
            STAGES[0],
            PipelineStage(
                "downstream",
                boom if broken == "map" else count_map,
                boom if broken == "reduce" else count_red,
                n_reducers=1,
            ),
        ]
        out = run_bounded(cluster, stages, ["/in/doc"], f"/x-{broken}", overlap=True)
        assert isinstance(out.get("error"), JobFailedError), out

    def test_streamed_stage_reports_the_staged_counters(self, env):
        _fs, cluster = env
        seq = run_pipeline(cluster, STAGES, ["/in/doc"], "/g", overlap=False)
        ov = run_pipeline(cluster, STAGES, ["/in/doc"], "/h", overlap=True)
        staged, streamed = seq.counters[1], ov.counters[1]
        # the feeder's idle polls are the one streaming-only counter
        assert set(streamed) - {"tail_polls"} == set(staged)
        for name in ("map_input_records", "reduce_input_groups",
                     "reduce_output_records", "reduce_output_bytes"):
            assert streamed[name] == staged[name], name

"""Tests for pipelined Map/Reduce (the paper's §5 future work)."""

import sys
import threading

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.errors import JobFailedError, MapReduceError
from repro.mapreduce import JobConf, MapReduceCluster, PipelineStage, run_pipeline
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
        assert set(streamed) == set(staged)
        for name in ("map_input_records", "reduce_input_groups",
                     "reduce_output_records", "reduce_output_bytes"):
            assert streamed[name] == staged[name], name

    def test_streamed_map_keys_are_byte_offsets_in_the_upstream_file(self, env):
        fs, cluster = env
        seen = []

        def record_map(off, line, ctx):
            seen.append((off, line))
            count_map(off, line, ctx)

        stages = [STAGES[0], PipelineStage("total", record_map, count_red)]
        run_pipeline(cluster, stages, ["/in/doc"], "/k", overlap=True)
        upstream = fs.read_all("/k/stage-00/part-shared")
        starts = [0] + [i + 1 for i, b in enumerate(upstream[:-1]) if b == 0x0A]
        # every line of the upstream file is read once, keyed by its offset
        assert sorted(off for off, _line in seen) == starts
        for off, line in seen:
            assert upstream[off:off + len(line) + 1] == line + b"\n"

    def test_streamed_map_attempt_that_fails_once_is_retried(self, env):
        fs, cluster = env
        lock = threading.Lock()
        failures = {"left": 1}

        def flaky_map(off, line, ctx):
            with lock:
                if failures["left"]:
                    failures["left"] -= 1
                    raise RuntimeError("transient map crash")
            count_map(off, line, ctx)

        seq = run_pipeline(cluster, STAGES, ["/in/doc"], "/r-seq", overlap=False)
        stages = [STAGES[0], PipelineStage("total", flaky_map, count_red)]
        out = run_bounded(cluster, stages, ["/in/doc"], "/r-ov", overlap=True)
        assert "error" not in out, out
        assert failures["left"] == 0
        assert fs.read_all(out["result"].stage_outputs[-1][0]) == fs.read_all(
            seq.stage_outputs[-1][0]
        )

    def test_no_live_tracker_fails_the_pipeline(self, env):
        _fs, cluster = env
        for tracker in cluster.tasktrackers:
            tracker.fail()
        out = run_bounded(cluster, STAGES, ["/in/doc"], "/dead", overlap=True)
        assert isinstance(out.get("error"), JobFailedError), out

    def test_overlap_holds_with_many_workers_and_short_switches(self, env):
        """More workers than cores, switching threads every microsecond: a
        lost update in the claim or feed bookkeeping would drop or repeat
        a line, or wedge the run."""
        fs, _cluster = env
        cluster = MapReduceCluster(fs, hosts=[f"provider-{i:03d}" for i in range(8)])
        seq = run_pipeline(cluster, STAGES, ["/in/doc"], "/s-seq")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_bounded(cluster, STAGES, ["/in/doc"], "/s-ov", overlap=True)
        finally:
            sys.setswitchinterval(interval)
        assert "error" not in out, out
        ov = out["result"]
        assert ov.counters[1]["map_input_records"] == seq.counters[1][
            "map_input_records"
        ]
        assert fs.read_all(ov.stage_outputs[-1][0]) == fs.read_all(
            seq.stage_outputs[-1][0]
        )


class TestFeeder:
    def test_each_batch_ends_on_the_last_newline_while_the_file_grows(self, env):
        """Upstream appends that stop mid-line: every batch of splits is
        read as soon as it is added, before the rest of its last line
        arrives, and still yields every line exactly once."""
        from types import SimpleNamespace

        from repro.mapreduce.io.input import LineRecordReader
        from repro.mapreduce.jobtracker import JobInProgress
        from repro.mapreduce.pipeline import _feed

        fs, cluster = env
        fs.create("/up").close()
        pieces = [b"alpha\nbe", b"ta\n\ngam", b"ma\ndelta\n"]

        def await_reduces(seen):
            with fs.append("/up") as stream:
                stream.write(pieces[seen])
            return seen + 1

        upstream = SimpleNamespace(
            conf=SimpleNamespace(name="up"),
            reduce_tasks=pieces,
            await_reduces=await_reduces,
        )
        conf = JobConf(
            name="down", input_paths=["/up"], output_dir="/down",
            map_fn=count_map, reduce_fn=count_red, split_size=4,
        )
        jip = JobInProgress(conf, fs, cluster.config, open_input=True)
        records = []
        add_splits = jip.add_splits

        def read_at_once(splits):
            for split in splits:
                records.extend(LineRecordReader(fs, split))
            add_splits(splits)

        jip.add_splits = read_at_once
        _feed(fs, upstream, jip)
        assert records == [
            (0, b"alpha"), (6, b"beta"), (11, b""), (12, b"gamma"), (18, b"delta")
        ]
        assert [t.task_id for t in jip.map_tasks] == list(range(len(jip.map_tasks)))

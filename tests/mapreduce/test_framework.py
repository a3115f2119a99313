"""Integration tests for the Map/Reduce engine: scheduling, retries,
failure handling, counters, locality."""

import threading
import time

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.common.errors import JobConfigurationError, JobFailedError
from repro.mapreduce import JobConf, MapReduceCluster
from repro.mapreduce.scheduler import pick_map_task, pick_reduce_task
from repro.mapreduce.task import MapTaskInfo, ReduceTaskInfo, TaskState
from repro.mapreduce.io.input import FileSplit


def wc_map(offset, line, ctx):
    for w in line.split():
        ctx.emit(w, 1)


def wc_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


def make_env(n_providers=4, page=2048):
    dep = BSFS(
        config=BlobSeerConfig(page_size=page, metadata_providers=2),
        n_providers=n_providers,
    )
    fs = dep.file_system("mr")
    hosts = [f"provider-{i:03d}" for i in range(n_providers)]
    return dep, fs, MapReduceCluster(fs, hosts=hosts)


class TestScheduler:
    def split(self, hosts):
        return FileSplit("/f", 0, 10, hosts=tuple(hosts))

    def test_prefers_local_task(self):
        tasks = [
            MapTaskInfo(0, self.split(["hostA"])),
            MapTaskInfo(1, self.split(["hostB"])),
        ]
        picked = pick_map_task(tasks, "hostB", locality_aware=True)
        assert picked.task_id == 1

    def test_falls_back_to_first_pending(self):
        tasks = [
            MapTaskInfo(0, self.split(["hostA"])),
            MapTaskInfo(1, self.split(["hostB"])),
        ]
        picked = pick_map_task(tasks, "hostZ", locality_aware=True)
        assert picked.task_id == 0

    def test_locality_blind_takes_first(self):
        tasks = [
            MapTaskInfo(0, self.split(["hostB"])),
            MapTaskInfo(1, self.split(["hostZ"])),
        ]
        picked = pick_map_task(tasks, "hostZ", locality_aware=False)
        assert picked.task_id == 0

    def test_skips_non_pending(self):
        tasks = [MapTaskInfo(0, self.split(["h"]))]
        tasks[0].state = TaskState.RUNNING
        assert pick_map_task(tasks, "h", True) is None

    def test_reduce_fifo(self):
        tasks = [ReduceTaskInfo(0, 0), ReduceTaskInfo(1, 1)]
        tasks[0].state = TaskState.SUCCEEDED
        assert pick_reduce_task(tasks).task_id == 1


class TestJobValidation:
    def test_missing_input_rejected(self):
        _dep, fs, cluster = make_env()
        conf = JobConf(
            name="j", input_paths=["/missing"], output_dir="/out",
            map_fn=wc_map, reduce_fn=wc_reduce,
        )
        with pytest.raises(JobConfigurationError):
            cluster.run_job(conf)

    def test_existing_output_rejected(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"x\n")
        fs.mkdirs("/out")
        conf = JobConf(
            name="j", input_paths=["/in"], output_dir="/out",
            map_fn=wc_map, reduce_fn=wc_reduce,
        )
        with pytest.raises(JobConfigurationError):
            cluster.run_job(conf)

    def test_bad_output_mode_rejected(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"x\n")
        conf = JobConf(
            name="j", input_paths=["/in"], output_dir="/out",
            map_fn=wc_map, reduce_fn=wc_reduce, output_mode="mystery",
        )
        with pytest.raises(JobConfigurationError):
            cluster.run_job(conf)


class TestRetries:
    def test_flaky_map_retried_to_success(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 50)
        failures = {"left": 2}
        lock = threading.Lock()

        def flaky_map(offset, line, ctx):
            with lock:
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient map crash")
            wc_map(offset, line, ctx)

        result = cluster.run_job(
            JobConf(
                name="flaky", input_paths=["/in"], output_dir="/out",
                map_fn=flaky_map, reduce_fn=wc_reduce, n_reducers=2,
            )
        )
        data = b"".join(fs.read_all(p) for p in result.output_files)
        assert b"hello\t50" in data

    def test_permanent_failure_fails_job(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"x\n")

        def broken_map(offset, line, ctx):
            raise RuntimeError("always broken")

        with pytest.raises(JobFailedError, match="map task"):
            cluster.run_job(
                JobConf(
                    name="broken", input_paths=["/in"], output_dir="/out",
                    map_fn=broken_map, reduce_fn=wc_reduce,
                )
            )

    def test_flaky_reduce_retried(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"a b c\n" * 20)
        failures = {"left": 1}
        lock = threading.Lock()

        def flaky_reduce(key, values, ctx):
            with lock:
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient reduce crash")
            wc_reduce(key, values, ctx)

        result = cluster.run_job(
            JobConf(
                name="fr", input_paths=["/in"], output_dir="/out",
                map_fn=wc_map, reduce_fn=flaky_reduce, n_reducers=1,
                output_mode="shared",
            )
        )
        data = fs.read_all(result.output_files[0])
        counts = dict(l.split(b"\t") for l in data.splitlines())
        # the retried reducer's output appears exactly once
        assert counts == {b"a": b"20", b"b": b"20", b"c": b"20"}


class TestCountersAndLocality:
    def test_counters_populated(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"a a b\n" * 10)
        result = cluster.run_job(
            JobConf(
                name="c", input_paths=["/in"], output_dir="/out",
                map_fn=wc_map, reduce_fn=wc_reduce, n_reducers=2,
            )
        )
        assert result.counters["map_input_records"] == 10
        assert result.counters["map_output_records"] == 30
        assert result.counters["reduce_input_groups"] == 2
        assert result.counters["reduce_output_records"] == 2

    @staticmethod
    def _fail_first_call_after_counting(fn, counter):
        """*fn*, counting *counter* per call, whose first call raises
        once it has counted."""
        failed = threading.Event()

        def flaky(key, value, ctx):
            ctx.counters.increment(counter)
            if not failed.is_set():
                failed.set()
                raise RuntimeError("transient task crash")
            fn(key, value, ctx)

        return flaky

    @staticmethod
    def _kv_map(key, value, ctx):
        ctx.emit(key, value)

    @staticmethod
    def _kv_reduce(key, values, ctx):
        ctx.emit(key, len(values))

    def _kv_job(self, map_fn=None, reduce_fn=None):
        """A 10-key ``kv`` job: one map task, one reducer."""
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"".join(b"k%d\t1\n" % i for i in range(10)))
        return cluster.run_job(
            JobConf(
                name="kv", input_paths=["/in"], output_dir="/out",
                map_fn=map_fn or self._kv_map,
                reduce_fn=reduce_fn or self._kv_reduce,
                input_format="kv",
            )
        )

    def test_failed_reduce_attempt_counts_nothing(self):
        result = self._kv_job(
            reduce_fn=self._fail_first_call_after_counting(
                self._kv_reduce, "keys_reduced"
            )
        )
        assert result.counters["keys_reduced"] == 10
        assert result.counters["reduce_input_groups"] == 10

    def test_failed_map_attempt_counts_nothing(self):
        result = self._kv_job(
            map_fn=self._fail_first_call_after_counting(
                self._kv_map, "records_mapped"
            )
        )
        assert result.n_map_tasks == 1
        assert result.counters["records_mapped"] == 10
        assert result.counters["map_input_records"] == 10

    def test_locality_fraction_reported(self):
        dep, fs, cluster = make_env()
        fs.write_all("/in", b"word\n" * 2000)
        cluster.run_job(
            JobConf(
                name="loc", input_paths=["/in"], output_dir="/out",
                map_fn=wc_map, reduce_fn=wc_reduce,
            )
        )
        assert 0.0 <= cluster.last_job.locality_fraction() <= 1.0

    def test_cluster_wide_shared_switch(self):
        dep, fs, _ = make_env()
        hosts = [f"provider-{i:03d}" for i in range(4)]
        cluster = MapReduceCluster(fs, hosts=hosts)
        fs.write_all("/in", b"a b\n" * 10)
        result = cluster.run_job(
            JobConf(
                name="sw", input_paths=["/in"], output_dir="/out",
                map_fn=wc_map, reduce_fn=wc_reduce, n_reducers=3,
                output_mode="shared",
            )
        )
        assert result.output_file_count == 1


class TestEmptyInput:
    def test_empty_file_job_completes(self):
        _dep, fs, cluster = make_env()
        fs.create("/in").close()
        result = cluster.run_job(
            JobConf(
                name="empty", input_paths=["/in"], output_dir="/out",
                map_fn=wc_map, reduce_fn=wc_reduce, n_reducers=2,
            )
        )
        assert result.n_map_tasks == 0
        assert result.output_file_count == 2  # empty part files still commit


class TestTaskTrackerCrash:
    def _job(self, name):
        return JobConf(
            name=name, input_paths=["/in"], output_dir="/out",
            map_fn=wc_map, reduce_fn=wc_reduce,
        )

    def test_job_completes_around_a_dead_tracker(self):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 200)
        dead = cluster.tasktrackers[0]
        dead.fail()
        result = cluster.run_job(self._job("dead-tracker"))
        assert result.output_file_count >= 1
        # the crashed tracker never claimed a task; the others did the work
        assert dead.maps_run == 0 and dead.reduces_run == 0
        assert sum(t.maps_run for t in cluster.tasktrackers) >= 1

    def test_mid_run_crash_requeues_claimed_tasks(self, monkeypatch):
        from repro.mapreduce.jobtracker import JobInProgress

        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 500)
        victim = cluster.tasktrackers[0]
        # the victim crashes on its first claim, holding the task; the
        # survivors block until then before they claim (a claim that
        # returns None tells a worker to exit), so the crash always lands
        # mid-run with a task in hand
        claimed = threading.Event()
        next_map_task = JobInProgress.next_map_task

        def claim(jip, tracker):
            if tracker is not victim:
                claimed.wait(30)
                return next_map_task(jip, tracker)
            task = next_map_task(jip, tracker)
            if task is not None and not claimed.is_set():
                victim.fail()
                claimed.set()
            return task

        monkeypatch.setattr(JobInProgress, "next_map_task", claim)
        result = cluster.run_job(self._job("mid-run-crash"))
        assert claimed.is_set()
        assert victim.is_failed
        # tasks the victim had claimed were re-queued on the survivors,
        # so the job still produced complete, correct output
        words = {}
        for path in result.output_files:
            for line in fs.read_all(path).decode().splitlines():
                k, v = line.rsplit("\t", 1)
                words[k] = int(v)
        assert words == {"hello": 500, "world": 500}

    @pytest.mark.parametrize("mode", ["separate", "shared"])
    def test_job_fails_when_every_tracker_has_crashed(self, mode):
        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 200)
        for tracker in cluster.tasktrackers:
            tracker.fail()
        conf = self._job(f"all-dead-{mode}")
        conf.output_mode = mode
        with pytest.raises(JobFailedError, match="no live tasktracker"):
            cluster.run_job(conf)

    def test_crash_wakes_workers_blocked_in_a_claim(self):
        from repro.mapreduce.io.input import compute_splits
        from repro.mapreduce.jobtracker import JobInProgress

        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 500)
        # an open input with no splits yet: every claim blocks
        jip = JobInProgress(self._job("blocked"), fs, cluster.config, open_input=True)
        victim, *survivors = cluster.tasktrackers
        victim_threads = victim.enlist(jip)
        threads = victim_threads + [
            t for tracker in survivors for t in tracker.enlist(jip)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while len(jip._cond._waiters) < len(threads):
            assert time.monotonic() < deadline, "workers never blocked"
            time.sleep(0.001)
        victim.fail()
        # the crash alone wakes the victim's workers: nothing else has
        # notified the job yet
        for t in victim_threads:
            t.join(5)
            assert not t.is_alive()
        jip.add_splits(compute_splits(fs, ["/in"], split_size=1024))
        jip.close_input()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert jip.finish()
        assert victim.maps_run == victim.reduces_run == 0
        # the victim's workers took no task, so no attempt was burned
        tasks = jip.map_tasks + jip.reduce_tasks
        assert len(jip.map_tasks) > 1
        assert all(t.attempts == 1 for t in tasks)
        assert all(t.assigned_to != victim.host for t in tasks)

    def test_recovered_tracker_works_for_the_next_job(self):
        _dep, fs, cluster = make_env(n_providers=2)
        fs.write_all("/in", b"a b\n" * 50)
        for t in cluster.tasktrackers[1:]:
            t.fail()
        cluster.tasktrackers[0].fail()
        cluster.tasktrackers[0].recover()
        result = cluster.run_job(self._job("recovered"))
        assert result.output_file_count >= 1
        assert cluster.tasktrackers[0].maps_run >= 1

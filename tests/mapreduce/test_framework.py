"""Integration tests for the Map/Reduce engine: scheduling, retries,
failure handling, counters, locality."""

import threading

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

    def test_mid_run_crash_requeues_claimed_tasks(self):
        from repro.faults import (
            FaultPlan,
            ThreadedFaultDriver,
            threaded_storage_injector,
        )

        _dep, fs, cluster = make_env()
        fs.write_all("/in", b"hello world\n" * 500)
        victim = cluster.tasktrackers[0]
        injector = threaded_storage_injector(
            tasktrackers=cluster.tasktrackers
        )
        plan = FaultPlan().crash("tasktracker", victim.host, at=0.005)
        driver = ThreadedFaultDriver(plan, injector).start()
        try:
            result = cluster.run_job(self._job("mid-run-crash"))
        finally:
            driver.stop()
            driver.join(timeout=5)
        assert victim.is_failed
        # tasks the victim had claimed were re-queued on the survivors,
        # so the job still produced complete, correct output
        words = {}
        for path in result.output_files:
            for line in fs.read_all(path).decode().splitlines():
                k, v = line.rsplit("\t", 1)
                words[k] = int(v)
        assert words == {"hello": 500, "world": 500}

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

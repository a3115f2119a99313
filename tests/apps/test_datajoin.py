"""The data join application, validated against an in-memory oracle on
both storage systems — the functional twin of the paper's §4.3."""

import threading

import pytest

from repro.apps import parse_join_output, reference_join, run_datajoin
from repro.apps.datajoin import make_datajoin_conf
from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig, HDFSConfig
from repro.common.errors import JobFailedError
from repro.hdfs import HDFSCluster
from repro.mapreduce import MapReduceCluster
from repro.workloads import kv_corpus


def parse(data):
    return [tuple(l.split(b"\t")) for l in data.splitlines()]


@pytest.fixture(scope="module")
def inputs():
    left = kv_corpus(350, key_space=50, seed=21)
    right = kv_corpus(280, key_space=50, seed=22)
    return left, right, reference_join(parse(left), parse(right))


class TestReferenceSemantics:
    def test_all_combinations(self):
        left = [(b"k", b"l1"), (b"k", b"l2")]
        right = [(b"k", b"r1"), (b"k", b"r2"), (b"k", b"r3")]
        assert len(reference_join(left, right)) == 6

    def test_left_only_keys_excluded(self):
        left = [(b"only-left", b"v"), (b"both", b"v")]
        right = [(b"both", b"w"), (b"only-right", b"w")]
        triples = reference_join(left, right)
        assert [t[0] for t in triples] == [b"both"]


class TestOnHDFS:
    def test_matches_oracle_separate_files(self, inputs):
        left, right, oracle = inputs
        cluster = HDFSCluster(
            n_datanodes=4, config=HDFSConfig(chunk_size=2048), seed=7
        )
        fs = cluster.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=list(cluster.datanodes))
        result = run_datajoin(mr, "/in/left", "/in/right", "/out", n_reducers=5)
        assert result.output_file_count == 5
        got = parse_join_output(
            b"".join(fs.read_all(p) for p in result.output_files)
        )
        assert got == oracle

    def test_shared_mode_fails_on_hdfs(self, inputs):
        left, right, _oracle = inputs
        cluster = HDFSCluster(n_datanodes=4, config=HDFSConfig(chunk_size=2048))
        fs = cluster.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=list(cluster.datanodes))
        with pytest.raises(JobFailedError):
            run_datajoin(
                mr, "/in/left", "/in/right", "/out", n_reducers=2,
                output_mode="shared",
            )


class TestOnBSFS:
    @pytest.mark.parametrize("n_reducers", [1, 4, 9])
    def test_matches_oracle_single_shared_file(self, inputs, n_reducers):
        left, right, oracle = inputs
        dep = BSFS(
            config=BlobSeerConfig(page_size=8192, metadata_providers=2),
            n_providers=5,
        )
        fs = dep.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=[f"provider-{i:03d}" for i in range(5)])
        result = run_datajoin(
            mr, "/in/left", "/in/right", "/out", n_reducers=n_reducers,
            output_mode="shared",
        )
        assert result.output_file_count == 1
        assert parse_join_output(fs.read_all(result.output_files[0])) == oracle

    def test_matched_key_counters(self, inputs):
        left, right, oracle = inputs
        dep = BSFS(
            config=BlobSeerConfig(page_size=8192, metadata_providers=2),
            n_providers=4,
        )
        fs = dep.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=[f"provider-{i:03d}" for i in range(4)])
        result = run_datajoin(
            mr, "/in/left", "/in/right", "/out", n_reducers=3,
            output_mode="shared",
        )
        matched_keys = {t[0] for t in oracle}
        assert result.counters["datajoin_matched_keys"] == len(matched_keys)

    def test_matched_key_counters_survive_a_reducer_retry(self, inputs):
        """A reducer attempt that fails after joining a matched key is
        retried; the job still counts each matched key once."""
        left, right, oracle = inputs
        matched_keys = {t[0] for t in oracle}
        dep = BSFS(
            config=BlobSeerConfig(page_size=8192, metadata_providers=2),
            n_providers=4,
        )
        fs = dep.file_system()
        fs.write_all("/in/left", left)
        fs.write_all("/in/right", right)
        mr = MapReduceCluster(fs, hosts=[f"provider-{i:03d}" for i in range(4)])
        conf = make_datajoin_conf(
            "/in/left", "/in/right", "/out", n_reducers=3, output_mode="shared"
        )
        join_reduce, failed = conf.reduce_fn, threading.Event()

        def flaky_reduce(key, values, ctx):
            join_reduce(key, values, ctx)
            if key in matched_keys and not failed.is_set():
                failed.set()
                raise RuntimeError("transient reduce crash")

        conf.reduce_fn = flaky_reduce
        result = mr.run_job(conf)
        assert failed.is_set()
        assert result.counters["datajoin_matched_keys"] == len(matched_keys)
        assert parse_join_output(fs.read_all(result.output_files[0])) == oracle

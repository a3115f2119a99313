"""Tests for the synthetic workload generators."""

import pytest

from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig
from repro.workloads import (
    LastFMSpec,
    generate_records,
    kv_corpus,
    text_corpus,
    write_dataset,
)
from repro.workloads.lastfm import spec_for_scale, users_for_blowup


def key_histogram(spec, which):
    """Key multiplicities of one generated file."""
    hist = {}
    for key, _value in generate_records(spec, which):
        hist[key] = hist.get(key, 0) + 1
    return hist


class TestTextCorpus:
    def test_size_and_shape(self):
        data = text_corpus(5000, seed=1)
        assert 4000 <= len(data) <= 5001
        assert data.endswith(b"\n")
        assert all(line.split() for line in data.splitlines())

    def test_deterministic(self):
        assert text_corpus(1000, seed=5) == text_corpus(1000, seed=5)
        assert text_corpus(1000, seed=5) != text_corpus(1000, seed=6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            text_corpus(0)


class TestKVCorpora:
    def test_kv_corpus_format(self):
        data = kv_corpus(50, key_space=10, seed=1)
        lines = data.splitlines()
        assert len(lines) == 50
        for line in lines:
            key, value = line.split(b"\t")
            assert key.startswith(b"k") and value.startswith(b"v")

    def test_kv_corpus_empty(self):
        assert kv_corpus(0) == b""


class TestLastFM:
    SPEC = LastFMSpec(bytes_per_file=20_000, n_users=200, seed=77)

    def test_records_deterministic_and_sized(self):
        a = list(generate_records(self.SPEC, "left"))
        b = list(generate_records(self.SPEC, "left"))
        assert a == b
        total = sum(len(k) + 1 + len(v) + 1 for k, v in a)
        assert total >= self.SPEC.bytes_per_file

    def test_left_right_share_key_universe_but_differ(self):
        left = key_histogram(self.SPEC, "left")
        right = key_histogram(self.SPEC, "right")
        assert left != right
        assert set(left) & set(right)  # overlap exists -> join non-empty

    def test_which_validated(self):
        with pytest.raises(ValueError):
            next(generate_records(self.SPEC, "middle"))

    def test_write_dataset_on_bsfs(self):
        dep = BSFS(config=BlobSeerConfig(page_size=8192, metadata_providers=2),
                   n_providers=3)
        fs = dep.file_system()
        ls, rs = write_dataset(fs, self.SPEC, "/data/left", "/data/right")
        assert fs.file_size("/data/left") == ls >= self.SPEC.bytes_per_file
        assert fs.file_size("/data/right") == rs
        first = fs.read_all("/data/left").splitlines()[0]
        key, value = first.split(b"\t")
        assert b"_" in key and b":" in value

    def test_calibration_hits_target_blowup(self):
        spec = spec_for_scale(50_000, target_blowup=10.0)
        left = key_histogram(spec, "left")
        right = key_histogram(spec, "right")
        # every (left, right) pair of a key is one ~60-byte output record
        joined = 60 * sum(n * right.get(k, 0) for k, n in left.items())
        blowup = joined / (2 * spec.bytes_per_file)
        assert 5.0 < blowup < 20.0

    def test_users_for_blowup_monotone(self):
        few = users_for_blowup(50_000, target_blowup=50.0)
        many = users_for_blowup(50_000, target_blowup=5.0)
        assert few < many  # smaller blow-up needs a bigger key universe

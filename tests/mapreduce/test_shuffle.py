"""Unit tests for the shuffle machinery."""

import pytest
from hypothesis import given, strategies as st

from repro.mapreduce.job import Counters, default_partitioner
from repro.mapreduce.shuffle import (
    MapOutputStore,
    merge_sorted_partitions,
    partition_and_sort,
)


class TestPartitionAndSort:
    def test_partitions_are_sorted(self):
        pairs = [(b"c", 1), (b"a", 2), (b"b", 3), (b"a", 4)]
        out = partition_and_sort(pairs, lambda k, n: 0, 1)
        assert out[0] == [(b"a", 2), (b"a", 4), (b"b", 3), (b"c", 1)]

    def test_partitioner_routes_keys(self):
        pairs = [(i, i) for i in range(10)]
        out = partition_and_sort(pairs, lambda k, n: k % n, 3)
        assert sorted(out[0]) == [(i, i) for i in range(0, 10, 3)]

    def test_empty_partitions_omitted(self):
        out = partition_and_sort([(b"x", 1)], lambda k, n: 0, 4)
        assert list(out) == [0]

    def test_bad_partitioner_detected(self):
        with pytest.raises(ValueError):
            partition_and_sort([(b"x", 1)], lambda k, n: 7, 2)

    def test_combiner_reduces_pairs(self):
        def summing(key, values, ctx):
            ctx.emit(key, sum(values))

        pairs = [(b"a", 1)] * 5 + [(b"b", 2)] * 3
        out = partition_and_sort(pairs, lambda k, n: 0, 1, combiner=summing)
        assert out[0] == [(b"a", 5), (b"b", 6)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=60
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_no_pair_lost(self, pairs, n_parts):
        out = partition_and_sort(pairs, default_partitioner, n_parts)
        flat = [p for bucket in out.values() for p in bucket]
        assert sorted(flat) == sorted(pairs)


class TestMerge:
    def test_merge_groups_by_key(self):
        parts = [
            [(b"a", 1), (b"c", 3)],
            [(b"a", 10), (b"b", 2)],
        ]
        grouped = list(merge_sorted_partitions(parts))
        assert grouped == [(b"a", [1, 10]), (b"b", [2]), (b"c", [3])]

    def test_merge_empty(self):
        assert list(merge_sorted_partitions([])) == []
        assert list(merge_sorted_partitions([[], []])) == []

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 10), st.integers()), max_size=20),
            max_size=5,
        )
    )
    def test_merge_property(self, raw_parts):
        parts = [sorted(p, key=lambda kv: kv[0]) for p in raw_parts]
        grouped = list(merge_sorted_partitions(parts))
        keys = [k for k, _v in grouped]
        assert keys == sorted(set(keys))
        all_values = sorted(
            v for _k, vs in grouped for v in vs
        )
        assert all_values == sorted(v for p in parts for _k, v in p)


class TestMapOutputStore:
    def test_put_get(self):
        store = MapOutputStore()
        store.put(3, 0, [(b"k", 1)])
        assert store.get(3, 0) == [(b"k", 1)]
        assert store.get(3, 1) == []
        assert store.get(9, 0) == []

    def test_discard_map(self):
        store = MapOutputStore()
        store.put(1, 0, [(b"a", 1)])
        store.put(1, 1, [(b"b", 1)])
        store.put(2, 0, [(b"c", 1)])
        store.discard_map(1)
        assert store.get(1, 0) == [] and store.get(1, 1) == []
        assert store.get(2, 0) == [(b"c", 1)]

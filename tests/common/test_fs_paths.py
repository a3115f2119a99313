"""Unit tests for path handling in the abstract FileSystem layer."""

import pytest
from hypothesis import given, strategies as st

from repro.common.fs import (
    join_path,
    normalize_path,
    parent_path,
    path_components,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("/a/b", "/a/b"),
        ("a/b", "/a/b"),
        ("/a//b/", "/a/b"),
        ("/a/./b", "/a/b"),
        ("/a/x/../b", "/a/b"),
        ("/", "/"),
        ("//", "/"),
    ],
)
def test_normalize(raw, expected):
    assert normalize_path(raw) == expected


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_path("")


def test_parent():
    assert parent_path("/a/b/c") == "/a/b"
    assert parent_path("/a") == "/"
    assert parent_path("/") == "/"


def test_components():
    assert path_components("/a/b/c") == ["a", "b", "c"]
    assert path_components("/") == []


def test_join():
    assert join_path("/out", "part-00001") == "/out/part-00001"
    assert join_path("/out/", "/nested/", "f") == "/out/nested/f"


name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="-_"),
    min_size=1,
    max_size=8,
)


@given(st.lists(name, min_size=1, max_size=5))
def test_join_then_split_roundtrip(parts):
    path = join_path(*parts)
    assert path_components(path) == parts

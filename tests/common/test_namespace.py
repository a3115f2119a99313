"""Unit tests for the shared hierarchical namespace tree."""

import pytest

from repro.common.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.common.namespace import NamespaceTree


@pytest.fixture()
def tree():
    return NamespaceTree()


class TestCreateLookup:
    def test_create_and_lookup(self, tree):
        tree.create_file("/a/b/file", payload=42)
        assert tree.lookup_file("/a/b/file").payload == 42

    def test_create_makes_parents(self, tree):
        tree.create_file("/deep/ly/nested/f", payload=1)
        assert tree.lookup("/deep/ly/nested").is_directory

    def test_exclusive_create(self, tree):
        tree.create_file("/f", payload=1)
        with pytest.raises(FileAlreadyExistsError):
            tree.create_file("/f", payload=2)

    def test_overwrite(self, tree):
        tree.create_file("/f", payload=1)
        tree.create_file("/f", payload=2, overwrite=True)
        assert tree.lookup_file("/f").payload == 2

    def test_create_over_directory_fails(self, tree):
        tree.mkdirs("/d")
        with pytest.raises(IsADirectoryError_):
            tree.create_file("/d", payload=1)

    def test_lookup_missing(self, tree):
        with pytest.raises(FileNotFoundInNamespaceError):
            tree.lookup("/ghost")

    def test_lookup_through_file(self, tree):
        tree.create_file("/f", payload=1)
        with pytest.raises(NotADirectoryError_):
            tree.lookup("/f/child")

    def test_lookup_file_on_directory(self, tree):
        tree.mkdirs("/d")
        with pytest.raises(IsADirectoryError_):
            tree.lookup_file("/d")


class TestMkdirs:
    def test_idempotent(self, tree):
        tree.mkdirs("/a/b")
        tree.mkdirs("/a/b")
        assert tree.exists("/a/b")

    def test_through_file_fails(self, tree):
        tree.create_file("/a", payload=1)
        with pytest.raises(NotADirectoryError_):
            tree.mkdirs("/a/b")


class TestListAndCount:
    def test_list_sorted(self, tree):
        for name in ("zebra", "apple", "mango"):
            tree.create_file(f"/d/{name}", payload=name)
        names = [p for p, _e in tree.list_dir("/d")]
        assert names == ["/d/apple", "/d/mango", "/d/zebra"]

    def test_list_non_dir_fails(self, tree):
        tree.create_file("/f", payload=1)
        with pytest.raises(NotADirectoryError_):
            tree.list_dir("/f")

    def test_count_entries(self, tree):
        tree.create_file("/a/x", payload=1)
        tree.create_file("/a/y", payload=2)
        tree.mkdirs("/b/c")
        dirs, files = tree.count_entries()
        assert (dirs, files) == (3, 2)  # /a, /b, /b/c

    def test_iter_files(self, tree):
        tree.create_file("/a/1", payload=1)
        tree.create_file("/a/b/2", payload=2)
        paths = [p for p, _e in tree.iter_files("/")]
        assert paths == ["/a/1", "/a/b/2"]


class TestDelete:
    def test_delete_file_returns_payload(self, tree):
        tree.create_file("/f", payload="blob-7")
        assert tree.delete("/f") == ["blob-7"]
        assert not tree.exists("/f")

    def test_delete_missing_returns_none(self, tree):
        assert tree.delete("/ghost") is None

    def test_delete_nonempty_dir_requires_recursive(self, tree):
        tree.create_file("/d/f", payload=1)
        with pytest.raises(DirectoryNotEmptyError):
            tree.delete("/d")
        payloads = tree.delete("/d", recursive=True)
        assert payloads == [1]
        assert not tree.exists("/d")

    def test_delete_empty_dir(self, tree):
        tree.mkdirs("/d")
        assert tree.delete("/d") == []


class TestRename:
    def test_rename_file(self, tree):
        tree.create_file("/tmp/part.tmp", payload=9)
        tree.rename("/tmp/part.tmp", "/out/part-00000")
        assert tree.lookup_file("/out/part-00000").payload == 9
        assert not tree.exists("/tmp/part.tmp")

    def test_rename_directory(self, tree):
        tree.create_file("/src/a", payload=1)
        tree.rename("/src", "/dst")
        assert tree.lookup_file("/dst/a").payload == 1

    def test_rename_to_existing_fails(self, tree):
        tree.create_file("/a", payload=1)
        tree.create_file("/b", payload=2)
        with pytest.raises(FileAlreadyExistsError):
            tree.rename("/a", "/b")

    def test_rename_missing_fails(self, tree):
        with pytest.raises(FileNotFoundInNamespaceError):
            tree.rename("/ghost", "/x")

    def test_rename_into_self_fails(self, tree):
        tree.mkdirs("/d")
        with pytest.raises(ValueError):
            tree.rename("/d", "/d/sub")

"""The namespace service both file systems run: one script drives the
HDFS namenode and the BSFS namespace manager through the calls they
share, and checks the statuses each reports."""

import pytest

from repro.bsfs.namespace import NamespaceManager
from repro.common.config import HDFSConfig
from repro.common.errors import FileNotFoundInNamespaceError
from repro.common.fs import FileStatus
from repro.hdfs.namenode import NameNode


def namenode():
    nn = NameNode(
        ["dn0", "dn1", "dn2"],
        config=HDFSConfig(chunk_size=64, replication=2),
        seed=0,
    )

    def create(path):
        nn.create(path, "w")

    def finish(path, size):
        block_id, targets = nn.allocate_block(path, "w")
        nn.commit_block(path, "w", block_id, size, targets)
        nn.complete(path, "w")

    return nn, create, finish, {"replication": 2, "block_size": 64}, True


def namespace_manager():
    ns = NamespaceManager()

    def create(path):
        ns.create(path, blob_id=7, page_size=64)

    def finish(path, size):
        ns.update_size(path, size)

    return ns, create, finish, {"replication": 1, "block_size": 64}, False


def file_status(svc, path, size, fields):
    mtime = svc.tree.lookup(path).modification_time
    return FileStatus(
        path=path, is_directory=False, size=size, modification_time=mtime, **fields
    )


def dir_status(svc, path):
    mtime = svc.tree.lookup(path).modification_time
    return FileStatus(path=path, is_directory=True, size=0, modification_time=mtime)


@pytest.mark.parametrize("deploy", [namenode, namespace_manager], ids=lambda f: f.__name__)
def test_one_script_on_both_services(deploy):
    svc, create, finish, fields, hides_unfinished = deploy()
    svc.mkdirs("/d/sub")
    create("/d/f")
    if hides_unfinished:
        # under construction: absent from every read-side query
        assert not svc.exists("/d/f")
        with pytest.raises(FileNotFoundInNamespaceError, match="not yet visible"):
            svc.get_status("/d/f")
        assert svc.list_dir("/d") == [dir_status(svc, "/d/sub")]
    else:
        assert svc.exists("/d/f")
        assert svc.get_status("/d/f") == file_status(svc, "/d/f", 0, fields)
    finish("/d/f", 40)

    assert svc.exists("/d/f")
    assert svc.get_status("d//f") == file_status(svc, "/d/f", 40, fields)
    assert svc.get_status("/d") == dir_status(svc, "/d")
    assert svc.list_dir("/d") == [
        file_status(svc, "/d/f", 40, fields),
        dir_status(svc, "/d/sub"),
    ]

    svc.rename("/d/f", "/e/g")
    assert not svc.exists("/d/f") and svc.exists("/e/g")
    assert svc.get_status("/e/g") == file_status(svc, "/e/g", 40, fields)
    assert [s.path for s in svc.list_dir("/d")] == ["/d/sub"]

    removed = svc.delete("/e", recursive=True)
    assert len(removed) == 1 and removed[0].size == 40
    assert not svc.exists("/e") and not svc.exists("/e/g")
    assert svc.delete("/e") is None
    with pytest.raises(FileNotFoundInNamespaceError):
        svc.get_status("/e/g")

"""Unit tests for the HDFS namenode."""

import pytest

from repro.common.config import HDFSConfig
from repro.common.errors import (
    AppendNotSupportedError,
    ConcurrentWriteError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    ImmutableFileError,
    ReplicationError,
)
from repro.hdfs.block import BlockId
from repro.hdfs.namenode import NameNode

DATANODES = [f"dn{i}" for i in range(5)]


@pytest.fixture()
def nn():
    return NameNode(DATANODES, config=HDFSConfig(chunk_size=64, replication=2), seed=9)


def write_file(nn, path, chunks, writer="w"):
    nn.create(path, writer)
    for i, length in enumerate(chunks):
        block_id, targets = nn.allocate_block(path, writer)
        nn.commit_block(path, writer, block_id, length, targets)
    nn.complete(path, writer)


class TestLifecycle:
    def test_under_construction_invisible(self, nn):
        nn.create("/f", "w")
        assert not nn.exists("/f")
        with pytest.raises(FileNotFoundInNamespaceError):
            nn.get_file("/f")
        nn.complete("/f", "w")
        assert nn.exists("/f")

    def test_single_writer(self, nn):
        nn.create("/f", "w1")
        with pytest.raises(ConcurrentWriteError):
            nn.create("/f", "w2")
        with pytest.raises(ConcurrentWriteError):
            nn.allocate_block("/f", "w2")

    def test_write_once(self, nn):
        write_file(nn, "/f", [64])
        with pytest.raises(ImmutableFileError):
            nn.allocate_block("/f", "w")
        with pytest.raises(FileAlreadyExistsError):
            nn.create("/f", "w")
        nn.create("/f", "w", overwrite=True)  # replace is allowed

    def test_append_refused(self, nn):
        write_file(nn, "/f", [64])
        with pytest.raises(AppendNotSupportedError):
            nn.append("/f")

    def test_abandon_removes_file(self, nn):
        nn.create("/f", "w")
        nn.abandon("/f", "w")
        assert not nn.tree.exists("/f")
        assert nn.file_count() == 0

    def test_lease_recovery_salvages_committed_chunks(self, nn):
        """A writer dies mid-file: recover_lease closes the file with the
        chunks committed so far — they become readable."""
        nn.create("/f", "dead-writer")
        bid, targets = nn.allocate_block("/f", "dead-writer")
        nn.commit_block("/f", "dead-writer", bid, 40, targets)
        # writer vanishes; the file is invisible…
        assert not nn.exists("/f")
        assert nn.recover_lease("/f") is True
        # …until the lease is recovered
        assert nn.exists("/f")
        assert nn.get_file("/f").size == 40
        # a new writer may now overwrite it
        nn.create("/f", "w2", overwrite=True)

    def test_lease_recovery_on_closed_file_is_noop(self, nn):
        write_file(nn, "/f", [10])
        assert nn.recover_lease("/f") is False


class TestBlocks:
    def test_allocate_respects_replication(self, nn):
        nn.create("/f", "w")
        _bid, targets = nn.allocate_block("/f", "w")
        assert len(targets) == len(set(targets)) == 2
        assert set(targets) <= set(DATANODES)

    def test_out_of_order_commit_rejected(self, nn):
        nn.create("/f", "w")
        _bid, targets = nn.allocate_block("/f", "w")
        wrong = BlockId(inode=999, index=5)
        with pytest.raises(ValueError):
            nn.commit_block("/f", "w", wrong, 10, targets)

    def test_block_longer_than_a_chunk_rejected(self, nn):
        nn.create("/f", "w")
        bid, targets = nn.allocate_block("/f", "w")
        with pytest.raises(ValueError, match="1 to 64 bytes, not 65"):
            nn.commit_block("/f", "w", bid, 65, targets)
        nn.commit_block("/f", "w", bid, 64, targets)  # a full chunk is fine

    def test_block_after_a_short_block_rejected(self, nn):
        nn.create("/f", "w")
        bid, targets = nn.allocate_block("/f", "w")
        nn.commit_block("/f", "w", bid, 30, targets)
        bid, targets = nn.allocate_block("/f", "w")
        with pytest.raises(ValueError, match="follows a short block"):
            nn.commit_block("/f", "w", bid, 64, targets)
        # the refused block left the file as it was: one short last chunk
        nn.complete("/f", "w")
        assert nn.get_status("/f").size == 30
        assert [l.length for l in nn.get_block_locations("/f", 0, 30)] == [30]

    def test_down_datanodes_excluded(self, nn):
        nn.mark_down("dn0")
        nn.mark_down("dn1")
        nn.create("/f", "w")
        for _ in range(10):
            _bid, targets = nn.allocate_block("/f", "w")
            assert "dn0" not in targets and "dn1" not in targets

    def test_no_alive_datanodes(self, nn):
        for dn in DATANODES:
            nn.mark_down(dn)
        nn.create("/f", "w")
        with pytest.raises(ReplicationError):
            nn.allocate_block("/f", "w")

    def test_random_placement_spreads(self, nn):
        """Placement is random, and therefore roughly uniform over many
        chunks — the paper notes HDFS 'picks random servers'."""
        nn2 = NameNode(DATANODES, config=HDFSConfig(chunk_size=64, replication=1))
        nn2.create("/f", "w")
        counts = {d: 0 for d in DATANODES}
        for _ in range(200):
            _bid, targets = nn2.allocate_block("/f", "w")
            counts[targets[0]] += 1
            nn2.commit_block("/f", "w", _bid, 64, targets)
        assert min(counts.values()) > 10


class TestMetadata:
    def test_status_and_size(self, nn):
        write_file(nn, "/f", [64, 64, 30])
        st = nn.get_status("/f")
        assert st.size == 158
        assert st.replication == 2
        assert st.block_size == 64

    def test_block_locations_window(self, nn):
        write_file(nn, "/f", [64, 64, 64])
        locs = nn.get_block_locations("/f", 70, 10)
        assert len(locs) == 1
        assert locs[0].offset == 64

    def test_list_dir_hides_under_construction(self, nn):
        write_file(nn, "/d/done", [10])
        nn.create("/d/wip", "w")
        names = [s.path for s in nn.list_dir("/d")]
        assert names == ["/d/done"]

    def test_rename_and_delete(self, nn):
        write_file(nn, "/tmp/f", [10])
        nn.rename("/tmp/f", "/out/f")
        assert nn.exists("/out/f")
        removed = nn.delete("/out/f")
        assert len(removed) == 1 and removed[0].size == 10

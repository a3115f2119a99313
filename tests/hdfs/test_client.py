"""Integration tests for the HDFS client: buffering, readahead, the
paper's write-once/no-append semantics, replica fallback."""

import pytest

from repro.common.config import HDFSConfig
from repro.common.errors import (
    AppendNotSupportedError,
    FileClosedError,
    ReplicationError,
)
from repro.hdfs import HDFSCluster


@pytest.fixture()
def cluster():
    return HDFSCluster(
        n_datanodes=5, config=HDFSConfig(chunk_size=1024, replication=2), seed=2
    )


@pytest.fixture()
def fs(cluster):
    return cluster.file_system("c0")


class TestWritePath:
    def test_roundtrip_multi_chunk(self, fs):
        data = bytes(range(256)) * 20  # 5 chunks
        fs.write_all("/f", data)
        assert fs.read_all("/f") == data
        locs = fs.get_block_locations("/f", 0, len(data))
        assert len(locs) == 5
        assert all(len(l.hosts) == 2 for l in locs)

    def test_client_buffers_until_chunk(self, cluster, fs):
        out = fs.create("/f")
        out.write(b"x" * 1000)  # below the 1024 chunk size
        assert sum(len(d._blocks) for d in cluster.datanodes.values()) == 0
        out.write(b"x" * 100)  # crosses the chunk boundary
        assert sum(len(d._blocks) for d in cluster.datanodes.values()) == 2
        out.close()

    def test_chunks_are_exactly_chunk_sized(self, cluster, fs):
        fs.write_all("/f", b"a" * 2500)
        locs = fs.get_block_locations("/f", 0, 2500)
        assert [l.length for l in locs] == [1024, 1024, 452]

    def test_append_not_supported(self, fs):
        fs.write_all("/f", b"x")
        with pytest.raises(AppendNotSupportedError):
            fs.append("/f")

    def test_flush_is_noop_but_legal(self, fs):
        out = fs.create("/f")
        out.write(b"x")
        out.flush()
        out.close()
        assert fs.file_size("/f") == 1

    def test_discard_abandons_file(self, fs):
        out = fs.create("/doomed")
        out.write(b"x" * 2000)
        out.discard()
        assert not fs.exists("/doomed")

    def test_closed_stream_rejects_writes(self, fs):
        out = fs.create("/f")
        out.close()
        with pytest.raises(FileClosedError):
            out.write(b"late")


class TestReadPath:
    def test_positional_reads(self, fs):
        data = bytes(range(256)) * 20
        fs.write_all("/f", data)
        with fs.open("/f") as s:
            assert s.pread(1020, 10) == data[1020:1030]  # cross-chunk
            s.seek(5000)
            assert s.read(200) == data[5000:5120]  # clipped at EOF
            assert s.read(10) == b""

    def test_readahead_caches_whole_chunk(self, fs):
        fs.write_all("/f", b"r" * 3000)
        with fs.open("/f") as s:
            for off in range(0, 1024, 64):
                s.pread(off, 64)
            assert s.fetches == 1  # one chunk prefetch served them all

    def test_readahead_disabled_fetches_ranges(self):
        cluster = HDFSCluster(
            n_datanodes=3,
            config=HDFSConfig(chunk_size=1024, readahead=False),
        )
        fs = cluster.file_system()
        fs.write_all("/f", b"r" * 2048)
        with fs.open("/f") as s:
            s.pread(0, 64)
            s.pread(64, 64)
            assert s.fetches == 2

    def test_replica_fallback_on_failure(self, cluster, fs):
        fs.write_all("/f", b"precious" * 500)
        locs = fs.get_block_locations("/f", 0, 100)
        cluster.fail_datanode(locs[0].hosts[0])
        assert fs.read_all("/f") == b"precious" * 500

    def test_all_replicas_down_fails(self, cluster, fs):
        fs.write_all("/f", b"x" * 100)
        locs = fs.get_block_locations("/f", 0, 100)
        for host in locs[0].hosts:
            cluster.fail_datanode(host)
        with pytest.raises(ReplicationError):
            fs.read_all("/f")

    def test_write_routes_around_down_datanode(self, cluster):
        cluster.fail_datanode("datanode-000")
        fs = cluster.file_system("w")
        fs.write_all("/f", b"y" * 3000)
        assert fs.read_all("/f") == b"y" * 3000
        for loc in fs.get_block_locations("/f", 0, 3000):
            assert "datanode-000" not in loc.hosts


class TestCommitByRename:
    def test_temp_then_rename_pattern(self, fs):
        """The original Hadoop reducer commit path."""
        with fs.create("/out/_temporary/part.tmp") as out:
            out.write(b"reducer output")
        fs.rename("/out/_temporary/part.tmp", "/out/part-00000")
        assert fs.read_all("/out/part-00000") == b"reducer output"
        fs.delete("/out/_temporary", recursive=True)
        names = [s.path for s in fs.list_dir("/out")]
        assert names == ["/out/part-00000"]


class TestReplicaRotation:
    """Streams rotate their starting replica (seeded per stream) and
    remember dead datanodes for their lifetime."""

    def _everywhere_cluster(self):
        return HDFSCluster(
            n_datanodes=4,
            config=HDFSConfig(chunk_size=1024, replication=4),
            seed=9,
        )

    def test_reads_spread_over_replicas(self):
        cluster = self._everywhere_cluster()
        fs = cluster.file_system("c0")
        fs.write_all("/f", b"z" * 4096)  # 4 chunks, each on all 4 datanodes
        with fs.open("/f") as stream:
            stream.read(4096)
        served = [
            d.bytes_served for d in cluster.datanodes.values() if d.bytes_served
        ]
        # the rotation phase steps per chunk fetch, so a single stream
        # spreads consecutive chunks over replicas; without rotation the
        # placement-order primary would absorb every read
        assert len(served) > 1

    def test_dead_datanodes_tried_last_for_the_stream(self):
        cluster = self._everywhere_cluster()
        fs = cluster.file_system("c0")
        fs.write_all("/f", b"z" * 4096)  # 4 chunks
        dead = "datanode-001"
        cluster.datanodes[dead].fail()  # crash without telling the namenode
        stream = fs.open("/f")
        assert stream.read(4096) == b"z" * 4096
        assert dead in stream._dead
        served_before = cluster.datanodes[dead].bytes_served
        stream.seek(0)
        assert stream.read(4096) == b"z" * 4096
        # the dead node is sorted last, so it is never probed again
        assert cluster.datanodes[dead].bytes_served == served_before

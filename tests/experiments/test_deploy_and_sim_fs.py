"""Tests for the simulated deployments and the simulated file systems
(SimBSFS / SimHDFS) they wire together."""

import pytest

from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.common.errors import OutOfRangeReadError
from repro.common.units import MiB
from repro.experiments.deploy import deploy_bsfs, deploy_hdfs


def small_config(nodes=30, metadata=4):
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=nodes),
        blobseer=BlobSeerConfig(page_size=4 * MiB, metadata_providers=metadata),
        hdfs=HDFSConfig(chunk_size=4 * MiB),
        repetitions=1,
    )


def run_all(cluster, procs):
    env = cluster.env

    def main():
        results = yield env.all_of(procs)
        return results

    return env.run(env.process(main()))


def timed_run(dep, op):
    """Run the client op *op* alone; returns the simulated seconds it
    took."""
    start = dep.env.now
    run_all(dep.cluster, [dep.env.process(op)])
    return dep.env.now - start


class TestDeployBSFS:
    def test_paper_role_split(self):
        cfg = small_config()
        dep = deploy_bsfs(cfg)
        roles = dep.roles
        all_roles = (
            {roles.blobseer.version_manager, roles.blobseer.provider_manager,
             roles.namespace_manager}
            | set(roles.blobseer.metadata_providers)
            | set(roles.blobseer.data_providers)
        )
        assert len(all_roles) == cfg.cluster.nodes  # disjoint, exhaustive
        assert len(roles.blobseer.metadata_providers) == 4
        assert dep.client_nodes == list(roles.blobseer.data_providers)

    def test_default_config_matches_paper(self):
        dep = deploy_bsfs(ExperimentConfig(repetitions=1))
        assert len(dep.roles.blobseer.metadata_providers) == 20
        # 270 - (VM + PM + NS + 20 mdp) = 247 providers
        assert len(dep.roles.blobseer.data_providers) == 247

    def test_too_small_cluster_rejected(self):
        cfg = small_config(nodes=5, metadata=4)
        with pytest.raises(ValueError):
            deploy_bsfs(cfg)


class TestDeployHDFS:
    def test_dedicated_namenode(self):
        dep = deploy_hdfs(small_config())
        assert dep.roles.namenode == "node-000"
        assert len(dep.roles.datanodes) == 29
        assert dep.client_nodes == list(dep.roles.datanodes)


class TestSimBSFS:
    def test_append_read_roundtrip_and_sizes(self):
        bsfs = deploy_bsfs(small_config())
        env = bsfs.env
        c0, c1 = bsfs.client_nodes[:2]
        env.run(env.process(bsfs.create_proc(c0, "/f")))
        run_all(bsfs.cluster, [env.process(bsfs.append_proc(c0, "/f", 4 * MiB))])
        assert bsfs.namespace.get_status("/f").size == 4 * MiB
        t0 = env.now
        [version] = run_all(
            bsfs.cluster, [env.process(bsfs.read_proc(c1, "/f", 0, 4 * MiB))]
        )
        assert version == 1 and env.now > t0

    def test_concurrent_appends_update_namespace(self):
        bsfs = deploy_bsfs(small_config())
        env = bsfs.env
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], "/f")))
        procs = [
            env.process(bsfs.append_proc(c, "/f", 2 * MiB))
            for c in bsfs.client_nodes[:6]
        ]
        run_all(bsfs.cluster, procs)
        assert bsfs.namespace.get_status("/f").size == 12 * MiB

    def test_preload_sets_up_readable_file(self):
        bsfs = deploy_bsfs(small_config())
        env = bsfs.env
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], "/f")))
        bsfs.preload("/f", 40 * MiB)
        assert bsfs.namespace.get_status("/f").size == 40 * MiB
        run_all(
            bsfs.cluster,
            [env.process(bsfs.read_proc(bsfs.client_nodes[1], "/f", 36 * MiB, 4 * MiB))],
        )

    def test_preload_requires_empty_file(self):
        bsfs = deploy_bsfs(small_config())
        env = bsfs.env
        env.run(env.process(bsfs.create_proc(bsfs.client_nodes[0], "/f")))
        bsfs.preload("/f", 4 * MiB)
        with pytest.raises(ValueError):
            bsfs.preload("/f", 4 * MiB)

    def test_refused_preload_leaves_the_file_appendable(self):
        # the refusal must not assign a version it never commits: the
        # next append would wait forever for that version's turn
        bsfs = deploy_bsfs(small_config())
        env = bsfs.env
        client = bsfs.client_nodes[0]
        env.run(env.process(bsfs.create_proc(client, "/f")))
        bsfs.preload("/f", 4 * MiB)
        with pytest.raises(ValueError):
            bsfs.preload("/f", 4 * MiB)
        append = env.process(bsfs.append_proc(client, "/f", 4 * MiB))
        [version] = run_all(bsfs.cluster, [append])
        assert version == 2
        assert bsfs.namespace.get_status("/f").size == 8 * MiB


class TestSimHDFS:
    def test_write_then_read(self):
        hdfs = deploy_hdfs(small_config())
        env = hdfs.env
        c = hdfs.client_nodes[0]
        run_all(hdfs.cluster, [env.process(hdfs.write_file_proc(c, "/f", 10 * MiB))])
        assert hdfs.namenode.get_status("/f").size == 10 * MiB
        locs = hdfs.namenode.get_block_locations("/f", 0, 10 * MiB)
        assert [l.length for l in locs] == [4 * MiB, 4 * MiB, 2 * MiB]
        t0 = env.now
        run_all(
            hdfs.cluster,
            [env.process(hdfs.read_proc(hdfs.client_nodes[1], "/f", 0, 10 * MiB))],
        )
        assert env.now > t0

    def test_concurrent_writers_to_distinct_files(self):
        """The HDFS pattern of the paper's Figure 1: N writers, N files."""
        hdfs = deploy_hdfs(small_config())
        env = hdfs.env
        procs = [
            env.process(hdfs.write_file_proc(c, f"/out/part-{i:05d}", 4 * MiB))
            for i, c in enumerate(hdfs.client_nodes[:8])
        ]
        run_all(hdfs.cluster, procs)
        assert len(hdfs.namenode.list_dir("/out")) == 8

    def test_preload(self):
        hdfs = deploy_hdfs(small_config())
        hdfs.preload("/f", 12 * MiB)
        assert hdfs.namenode.get_status("/f").size == 12 * MiB


class TestHeadToHeadFairness:
    def test_single_writer_throughput_similar(self):
        """One client writing one chunk should cost about the same on
        both systems — the paper's 'no extra cost' premise."""
        cfg = small_config()
        bsfs = deploy_bsfs(cfg)
        client = bsfs.client_nodes[0]
        bsfs.env.run(bsfs.env.process(bsfs.create_proc(client, "/f")))
        t_bsfs = timed_run(bsfs, bsfs.append_proc(client, "/f", 4 * MiB))

        hdfs = deploy_hdfs(cfg)
        client = hdfs.client_nodes[0]
        t_hdfs = timed_run(hdfs, hdfs.write_file_proc(client, "/f", 4 * MiB))
        assert t_bsfs == pytest.approx(t_hdfs, rel=0.25)

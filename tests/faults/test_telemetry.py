"""Every runtime's crash hooks record their own faults: one crash and
one recovery of one component bump ``faults.injected`` /
``faults.recovered`` and stamp one ``fault.crash`` / ``fault.recover``
instant naming the component and its target."""

from dataclasses import replace

import pytest

from repro.blobseer.client import BlobSeerService
from repro.common.config import ExperimentConfig
from repro.experiments.deploy import deploy_bsfs
from repro.hdfs import HDFSCluster
from repro.obs import Observability
from repro.obs.events import FAULT_CRASH, FAULT_RECOVER


def _sim_blobseer(obs):
    cfg = ExperimentConfig(repetitions=1)
    cfg.cluster = replace(cfg.cluster, nodes=8)
    cfg.blobseer = replace(cfg.blobseer, metadata_providers=2)
    sb = deploy_bsfs(cfg, obs=obs).blobseer
    target = sb.roles.data_providers[0]
    return sb.fail_provider, sb.recover_provider, "provider", target


def _blobseer_service(obs):
    svc = BlobSeerService(n_providers=3, obs=obs)
    return svc.fail_provider, svc.recover_provider, "provider", "provider-001"


def _hdfs_cluster(obs):
    cluster = HDFSCluster(n_datanodes=3, obs=obs)
    return (
        cluster.fail_datanode,
        cluster.recover_datanode,
        "datanode",
        "datanode-002",
    )


@pytest.mark.parametrize(
    "deployment", [_sim_blobseer, _blobseer_service, _hdfs_cluster]
)
def test_crash_hooks_count_and_stamp_the_fault(deployment):
    obs = Observability.on()
    fail, recover, component, target = deployment(obs)
    fail(target)
    recover(target)

    assert obs.registry.value("faults.injected") == 1
    assert obs.registry.value("faults.recovered") == 1
    marks = [
        (s.name, s.args) for s in obs.tracer.snapshot() if s.cat == "fault"
    ]
    args = {"component": component, "target": target}
    assert marks == [(FAULT_CRASH, args), (FAULT_RECOVER, args)]

#!/usr/bin/env python3
"""Drive the simulated Grid'5000 testbed directly (Figures 3-5, quick).

Deploys BSFS on the paper's 270-node Orsay layout (one version manager,
one provider manager, one namespace manager, 20 metadata providers, the
rest data providers), then reruns the three microbenchmarks at reduced
sweep density and prints the regenerated figures.

Run:  python examples/grid5000_microbench.py
(Equivalent CLI: repro-fig fig3 / fig4 / fig5, or --scale paper for the
full sweeps.)
"""

from repro.common.config import ExperimentConfig
from repro.experiments.deploy import deploy_bsfs
from repro.experiments.figures import fig3, fig4, fig5


def main() -> None:
    cfg = ExperimentConfig(repetitions=1)
    dep = deploy_bsfs(cfg)
    roles = dep.roles
    print("simulated deployment (paper §4.1):")
    print(f"    version manager    : {roles.blobseer.version_manager}")
    print(f"    provider manager   : {roles.blobseer.provider_manager}")
    print(f"    namespace manager  : {roles.namespace_manager}")
    print(f"    metadata providers : {len(roles.blobseer.metadata_providers)}")
    print(f"    data providers     : {len(roles.blobseer.data_providers)}")
    print()

    for make in (fig3, fig4, fig5):
        result = make(scale="quick")
        print(result.to_text())
        print()


if __name__ == "__main__":
    main()

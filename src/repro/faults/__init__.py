"""Fault injection: declarative crash/recover plans for the simulated
runtime, and the retry policy both runtimes share.

The paper's evaluation assumes zero failures; this package is the
testbed for the failure-recovery mechanisms layered on top of it
(append-ticket leases at the version manager, replica failover with
retry/backoff in the clients, task re-execution in Map/Reduce). Plans
replay on the DES (fig7); threaded-runtime tests crash components by
calling their ``fail``/``recover`` directly. See DESIGN.md's
failure-model section.
"""

from .inject import (
    FaultInjector,
    schedule_plan,
    sim_blobseer_injector,
)
from .plan import FaultPlan, FaultSpec, RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "schedule_plan",
    "sim_blobseer_injector",
]

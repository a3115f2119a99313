"""Fault injection: declarative crash/recover plans for both runtimes.

The paper's evaluation assumes zero failures; this package is the
testbed for the failure-recovery mechanisms layered on top of it
(append-ticket leases at the version manager, replica failover with
retry/backoff in the clients, task re-execution in Map/Reduce). See
DESIGN.md's failure-model section.
"""

from .inject import (
    FaultInjector,
    ThreadedFaultDriver,
    schedule_plan,
    sim_blobseer_injector,
    threaded_storage_injector,
)
from .plan import COMPONENTS, FaultPlan, FaultSpec, RetryPolicy

__all__ = [
    "COMPONENTS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "ThreadedFaultDriver",
    "schedule_plan",
    "sim_blobseer_injector",
    "threaded_storage_injector",
]

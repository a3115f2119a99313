"""The instant-event vocabulary: fault and lease moment markers.

Chaos runs (fig7) perturb the protocol with provider crashes, recoveries
and append-ticket lease expiries; these helpers stamp each such moment
onto the trace as a zero-duration instant (:meth:`Tracer.instant`), so
the trace viewer and the run report can align failures against the spans
they perturb. Every helper is a no-op on a disabled tracer. The crash
hooks of every deployment call :func:`fault_crash` / :func:`fault_recover`
themselves, which also count the fault (``faults.injected`` /
``faults.recovered``), so both runtimes report the same fault telemetry.

The names are the contract consumed by
:func:`repro.experiments.runreport.fault_timeline` — add new moments
here, not ad hoc at the call sites.
"""

from __future__ import annotations

from . import Observability
from .tracer import Tracer

#: category shared by every fault/lease moment marker
FAULT_CAT = "fault"

#: a component was crashed
FAULT_CRASH = "fault.crash"
#: a crashed component was brought back
FAULT_RECOVER = "fault.recover"
#: an append-ticket lease ran out and the version was aborted
LEASE_EXPIRED = "vm.lease_expired"


def fault_crash(obs: Observability, component: str, target: str) -> None:
    """Count a crash and stamp it at the tracer's current time."""
    obs.registry.counter("faults.injected").inc()
    obs.tracer.instant(
        FAULT_CRASH, cat=FAULT_CAT, track="faults",
        component=component, target=target,
    )


def fault_recover(obs: Observability, component: str, target: str) -> None:
    """Count a recovery and stamp it at the tracer's current time."""
    obs.registry.counter("faults.recovered").inc()
    obs.tracer.instant(
        FAULT_RECOVER, cat=FAULT_CAT, track="faults",
        component=component, target=target,
    )


def lease_expired(tracer: Tracer, blob_id: int, version: int) -> None:
    """Stamp an append-ticket lease expiry (the version was aborted)."""
    tracer.instant(
        LEASE_EXPIRED, cat=FAULT_CAT, track="faults",
        blob=blob_id, version=version,
    )

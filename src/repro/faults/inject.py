"""Fault drivers: turn a :class:`~repro.faults.plan.FaultPlan` into
actual crash/recover calls on a running deployment.

The :class:`FaultInjector` is the registry both runtimes share — each
deployment registers a ``(fail, recover)`` handler pair per component
kind. :func:`schedule_plan` schedules the plan on a DES
:class:`~repro.sim.core.Environment` as bare-callback events. The
threaded runtime has no plan driver: its tests crash components by
calling ``fail``/``recover`` directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..obs import NULL_OBS, Observability
from ..obs.events import fault_crash, fault_recover
from .plan import FaultPlan


class FaultInjector:
    """Component-kind registry of fail/recover handlers, with counters.

    Every injection and recovery is also marked as an instant trace
    event (:mod:`repro.obs.events`), so chaos runs show their fault
    timeline inline with the client spans they perturb.
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        obs = obs or NULL_OBS
        self._tracer = obs.tracer
        self._handlers: Dict[
            str, Tuple[Callable[[str], None], Optional[Callable[[str], None]]]
        ] = {}
        self._c_injected = obs.registry.counter("faults.injected")
        self._c_recovered = obs.registry.counter("faults.recovered")

    def register(
        self,
        component: str,
        fail: Callable[[str], None],
        recover: Optional[Callable[[str], None]] = None,
    ) -> "FaultInjector":
        """Install handlers for one component kind; returns self."""
        self._handlers[component] = (fail, recover)
        return self

    def components(self) -> List[str]:
        return sorted(self._handlers)

    def handler(
        self, component: str, recovering: bool = False
    ) -> Callable[[str], None]:
        """*component*'s fail handler (its recover handler when
        *recovering*); ``ValueError`` when it has none."""
        try:
            fail, recover = self._handlers[component]
        except KeyError:
            raise ValueError(
                f"no handler registered for component {component!r} "
                f"(have {self.components()})"
            ) from None
        if not recovering:
            return fail
        if recover is None:
            raise ValueError(f"component {component!r} cannot recover")
        return recover

    def crash(self, component: str, target: str) -> None:
        self.handler(component)(target)
        self._c_injected.inc()
        fault_crash(self._tracer, component, target)

    def recover(self, component: str, target: str) -> None:
        self.handler(component, recovering=True)(target)
        self._c_recovered.inc()
        fault_recover(self._tracer, component, target)


def schedule_plan(env, plan: FaultPlan, injector: FaultInjector) -> int:
    """Schedule *plan* on a DES environment, relative to ``env.now``;
    returns the number of faults scheduled.

    Every spec is checked against *injector* first: a plan naming a
    component it has no handler for (or a recovery it cannot carry out)
    is rejected here, with nothing scheduled, instead of failing the run
    when that fault comes due.
    """
    specs = plan.specs
    for spec in specs:
        injector.handler(spec.component, recovering=spec.duration is not None)
    for spec in specs:
        env.call_at(
            env.now + spec.at,
            lambda s=spec: injector.crash(s.component, s.target),
        )
        if spec.duration is not None:
            env.call_at(
                env.now + spec.at + spec.duration,
                lambda s=spec: injector.recover(s.component, s.target),
            )
    return len(specs)


# -- deployment adapters -------------------------------------------------------


def sim_blobseer_injector(
    blobseer, obs: Optional[Observability] = None
) -> FaultInjector:
    """Injector wired to a :class:`~repro.blobseer.simulated.SimBlobSeer`
    (the ``provider`` component: data providers by name)."""
    return FaultInjector(obs).register(
        "provider", blobseer.fail_provider, blobseer.recover_provider
    )

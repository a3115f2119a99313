"""Fault drivers: turn a :class:`~repro.faults.plan.FaultPlan` into
actual crash/recover calls on a running deployment.

The :class:`FaultInjector` is the registry both runtimes share — each
deployment registers a ``(fail, recover)`` handler pair per component
kind. :func:`schedule_plan` schedules the plan on a DES
:class:`~repro.sim.core.Environment` as bare-callback events;
:class:`ThreadedFaultDriver` replays it on the threaded runtime from a
daemon thread using wall-clock sleeps.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import NULL_OBS, Observability
from ..obs.events import fault_crash, fault_recover
from .plan import FaultPlan, FaultSpec


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

    def crash(self, component: str, target: str) -> None:
        try:
            fail, _recover = self._handlers[component]
        except KeyError:
            raise ValueError(
                f"no handler registered for component {component!r} "
                f"(have {self.components()})"
            ) from None
        fail(target)
        self._c_injected.inc()
        fault_crash(self._tracer, component, target)

    def recover(self, component: str, target: str) -> None:
        try:
            _fail, recover = self._handlers[component]
        except KeyError:
            raise ValueError(
                f"no handler registered for component {component!r} "
                f"(have {self.components()})"
            ) from None
        if recover is None:
            raise ValueError(f"component {component!r} cannot recover")
        recover(target)
        self._c_recovered.inc()
        fault_recover(self._tracer, component, target)


def schedule_plan(env, plan: FaultPlan, injector: FaultInjector, rng=None) -> int:
    """Schedule *plan* on a DES environment, relative to ``env.now``.

    Returns the number of faults scheduled (after materializing
    probabilistic specs with *rng*).
    """
    specs = plan.materialize(rng)
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


class ThreadedFaultDriver:
    """Replay a plan against the threaded runtime on wall-clock time.

    ``time_scale`` compresses the plan (0.1 = ten times faster), so
    tests can express plans in natural seconds and run them in
    milliseconds.
    """

    def __init__(
        self,
        plan: FaultPlan,
        injector: FaultInjector,
        rng=None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        events: List[Tuple[float, str, FaultSpec]] = []
        for spec in plan.materialize(rng):
            events.append((spec.at, "crash", spec))
            if spec.duration is not None:
                events.append((spec.at + spec.duration, "recover", spec))
        events.sort(key=lambda e: e[0])
        self._events = events
        self._injector = injector
        self._scale = time_scale
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fault-driver", daemon=True
        )

    def start(self) -> "ThreadedFaultDriver":
        self._thread.start()
        return self

    def _run(self) -> None:
        t0 = time.monotonic()
        for at, action, spec in self._events:
            delay = t0 + at * self._scale - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            if self._stop.is_set():
                return
            if action == "crash":
                self._injector.crash(spec.component, spec.target)
            else:
                self._injector.recover(spec.component, spec.target)

    def stop(self) -> None:
        """Cancel faults not yet fired."""
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)


# -- deployment adapters -------------------------------------------------------


def sim_blobseer_injector(
    blobseer, obs: Optional[Observability] = None
) -> FaultInjector:
    """Injector wired to a :class:`~repro.blobseer.simulated.SimBlobSeer`
    (the ``provider`` component: data providers by name)."""
    return FaultInjector(obs).register(
        "provider", blobseer.fail_provider, blobseer.recover_provider
    )


def threaded_storage_injector(
    service=None,
    hdfs_cluster=None,
    tasktrackers=None,
    obs: Optional[Observability] = None,
) -> FaultInjector:
    """Injector for the threaded runtime: any of a
    :class:`~repro.blobseer.client.BlobSeerService`, an
    :class:`~repro.hdfs.client.HDFSCluster`, and a list of
    :class:`~repro.mapreduce.tasktracker.TaskTracker` (addressed by
    host name)."""
    injector = FaultInjector(obs)
    if service is not None:
        injector.register(
            "provider", service.fail_provider, service.recover_provider
        )
    if hdfs_cluster is not None:
        injector.register(
            "datanode",
            hdfs_cluster.fail_datanode,
            hdfs_cluster.recover_datanode,
        )
    if tasktrackers is not None:
        by_host = {t.host: t for t in tasktrackers}

        def _fail(host: str) -> None:
            by_host[host].fail()

        def _recover(host: str) -> None:
            by_host[host].recover()

        injector.register("tasktracker", _fail, _recover)
    return injector

"""The discrete-event engine: protocol ops as simulation kernel events.

Every op returned by this engine is a live :class:`~repro.sim.core.Event`
scheduled against the shared cluster physics, so protocol generators run
directly under ``env.process`` — ``yield op`` is a native kernel wait.

Cost model (unchanged from the pre-engine simulated clients):

* ``call`` — one charged round trip (latency + FIFO service at the
  endpoint's one-slot resource);
* ``store`` — a network transfer client→endpoint, acknowledged on
  receipt, with asynchronous disk persistence (fire-and-forget);
* ``fetch`` — endpoint disk (or page-cache) service chained into the
  network transfer back to the client;
* ``charge_md`` — batched fan-out over the per-owner metadata slots;
* down data endpoints fail ``store``/``fetch`` with
  :class:`~repro.common.errors.RpcTimeoutError` after the retry
  policy's ``rpc_timeout`` of simulated time. Data providers are the
  only endpoints the DES crashes (fig7's fault model): metadata lives in
  the in-process DHT on every runtime, so it has no crash model here.

The fault-free fast paths (``ship_many``/``gather``) batch whole page
fan-outs through ``network.transfer_many`` so same-instant replica churn
coalesces into one reallocation; ``faults_active`` stays ``False`` (and
the cores on those fast paths) until the first injected fault.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Set

from ..common.errors import RpcTimeoutError
from ..common.rng import substream
from ..faults.plan import RetryPolicy
from ..obs import NULL_OBS, Observability
from ..sim.cluster import SimCluster
from ..sim.core import Event
from ..sim.resources import Resource, batch_round_trips
from .base import Engine, Payload


class _Control:
    """One bound control endpoint: adapter + serialized service slot."""

    __slots__ = ("adapter", "slot", "service", "method_services")

    def __init__(
        self,
        adapter: Any,
        slot: Resource,
        service: float,
        method_services: Optional[dict] = None,
    ) -> None:
        self.adapter = adapter
        self.slot = slot
        self.service = service
        #: per-method overrides of the default service time — e.g. the
        #: VM's cheap group-commit enqueue vs. its full critical section
        self.method_services = method_services or {}


class DesEngine(Engine):
    """Engine over a :class:`~repro.sim.cluster.SimCluster`."""

    def __init__(
        self, cluster: SimCluster, obs: Optional[Observability] = None
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.retry = RetryPolicy.from_cluster(cluster.config)
        self._seed = cluster.config.seed
        self._control: dict[str, _Control] = {}
        self._md_slots: List[Resource] = []
        self._down: Set[str] = set()
        self._faults_on = False
        self.use_obs(obs or NULL_OBS)

    def use_obs(self, obs: Observability) -> None:
        """(Re)wire observability — harnesses built with NULL_OBS can
        switch a live engine onto an enabled bundle."""
        self.obs = obs
        if obs.tracer.enabled:
            # spans carry simulated timestamps; rebasing keeps successive
            # deployments sequential in one trace
            env = self.env
            obs.tracer.use_clock(lambda: env.now)
            self._tracer = obs.tracer
        else:
            self._tracer = None
        self._trace_parent = None
        self._c_rpc_timeouts = obs.registry.counter("net.rpc_timeouts")

    def _spanned(self, ev: Event, name: str, cat: str, **args: Any) -> Event:
        """Open one op span now (creation time) and finish it when *ev*
        fires — failed ops record their exception type."""
        sp = self._tracer.start(
            name, cat=cat, parent=self._take_parent(), **args
        )

        def _finish(e: Event, sp=sp) -> None:
            if not e._ok:
                sp.set(error=type(e._value).__name__)
            sp.finish()

        ev.callbacks.append(_finish)
        return ev

    # -- wiring -------------------------------------------------------------

    def bind(
        self,
        name: str,
        adapter: Any,
        service_time: float,
        method_services: Optional[dict] = None,
    ) -> None:
        """Register a control endpoint served one RPC at a time.

        *method_services* optionally overrides the service time for
        specific methods (they still serialize at the same slot).
        """
        self._control[name] = _Control(
            adapter,
            Resource(self.env, capacity=1),
            service_time,
            method_services,
        )

    def bind_md(self, n_owners: int) -> None:
        """Register the metadata providers (one service slot each)."""
        self._md_slots = [
            Resource(self.env, capacity=1) for _ in range(n_owners)
        ]

    # -- fault state --------------------------------------------------------

    def fail_endpoint(self, name: str) -> None:
        self._down.add(name)
        self._faults_on = True

    def recover_endpoint(self, name: str) -> None:
        self._down.discard(name)

    def is_down(self, endpoint: str) -> bool:
        return endpoint in self._down

    @property
    def faults_active(self) -> bool:
        return self._faults_on

    # -- clock / flow -------------------------------------------------------

    def now(self) -> float:
        return self.env.now

    def sleep(self, dt: float) -> Event:
        ev = self.env.timeout(dt)
        if self._tracer is not None:
            return self._spanned(ev, "engine.sleep", "engine.retry", dt=dt)
        return ev

    def run(self, gen: Generator) -> Event:
        """Wrap a protocol generator in a kernel process (its event)."""
        return self.env.process(gen)

    def rng(self, *names):
        return substream(self._seed, *names)

    # -- control plane ------------------------------------------------------

    def call(self, endpoint: str, method: str, *args: Any) -> Event:
        ctl = self._control[endpoint]
        fn = getattr(ctl.adapter, method)
        service = ctl.method_services.get(method, ctl.service)
        ev = ctl.slot.round_trip(
            self.cluster.config.latency, service, lambda: fn(*args)
        )
        if self._tracer is not None:
            return self._spanned(
                ev, f"engine.call:{endpoint}.{method}", "engine.call"
            )
        return ev

    def wait(self, endpoint: str, method: str, *args: Any) -> Event:
        """Uncharged wait: the adapter may hand back a condition event."""
        out = getattr(self._control[endpoint].adapter, method)(*args)
        if isinstance(out, Event):
            ev = out
        else:
            ev = Event(self.env)
            ev.succeed(out)
        if self._tracer is not None:
            return self._spanned(
                ev, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return ev

    # -- data plane ---------------------------------------------------------

    def _timeout_fail(self, what: str) -> Event:
        """An op that fails with a charged RPC timeout."""
        self._c_rpc_timeouts.inc()
        ev = Event(self.env)
        self.env.call_in(
            self.retry.rpc_timeout,
            lambda: ev.fail(RpcTimeoutError(f"{what} timed out")),
        )
        return ev

    def store(
        self, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> Event:
        nbytes = len(payload)
        if endpoint in self._down:
            t = self._timeout_fail(f"store to {endpoint}")
        else:
            t = self.cluster.network.transfer(client, endpoint, nbytes)

            def persist(ev: Event) -> None:
                if ev._ok:
                    # asynchronous persistence; disk contention accrues
                    self.cluster.node(endpoint).disk.write(nbytes, notify=False)

            t.callbacks.append(persist)
        if self._tracer is not None:
            return self._spanned(
                t, "engine.store", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return t

    def fetch(
        self,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> Event:
        if endpoint in self._down:
            done = self._timeout_fail(f"fetch from {endpoint}")
        else:
            done = Event(self.env)

            def off_disk(ev: Event) -> None:
                if not ev._ok:
                    done.fail(ev._value)
                    return
                t = self.cluster.network.transfer(endpoint, client, nbytes)
                t.callbacks.append(
                    lambda tv: done.succeed(None)
                    if tv._ok
                    else done.fail(tv._value)
                )

            self.cluster.node(endpoint).disk.read(nbytes).callbacks.append(
                off_disk
            )
        if self._tracer is not None:
            return self._spanned(
                done, "engine.fetch", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return done

    def charge_md(self, owners: Sequence[int]) -> Event:
        done = Event(self.env)
        cfg = self.cluster.config
        batch_round_trips(
            [self._md_slots[o] for o in owners],
            cfg.latency,
            cfg.metadata_rpc_time,
            done,
        )
        if self._tracer is not None:
            return self._spanned(
                done, "engine.charge_md", "engine.md", rpcs=len(owners)
            )
        return done

    # -- batch fast paths ---------------------------------------------------

    def ship_many(
        self,
        client: str,
        placements: Sequence[Sequence[str]],
        sizes: Sequence[int],
    ) -> List[Event]:
        """Batch-ship pages to their replicas (ack on receipt).

        Every ``(page, replica)`` transfer starts through the network's
        batch API, so the whole fan-out costs one coalesced reallocation
        instead of one per replica. Each returned event fires when that
        page's last replica has the bytes; persistence is asynchronous.
        """
        flat = self.cluster.network.transfer_many(
            (client, prov, nbytes)
            for providers, nbytes in zip(placements, sizes)
            for prov in providers
        )
        out: List[Event] = []
        pos = 0
        for providers, nbytes in zip(placements, sizes):
            transfers = flat[pos : pos + len(providers)]
            pos += len(providers)
            # single replica (the default): no fan-in barrier needed
            done = (
                transfers[0]
                if len(transfers) == 1
                else self.env.all_of(transfers)
            )

            def persist(
                ev: Event,
                providers: Sequence[str] = providers,
                nbytes: int = nbytes,
            ) -> None:
                if ev._ok:
                    for prov in providers:
                        self.cluster.node(prov).disk.write(nbytes, notify=False)

            done.callbacks.append(persist)
            out.append(done)
        if self._tracer is not None and out:
            # one span for the whole fan-out, finished when the last
            # page's last replica has the bytes
            self._spanned(
                self.env.all_of(list(out)),
                "engine.ship_many",
                "engine.data",
                pages=len(out),
                nbytes=sum(sizes),
            )
        return out

    def gather(self, ops: List[Event]) -> Event:
        ev = self.env.all_of(ops)
        if self._tracer is not None:
            return self._spanned(ev, "engine.gather", "engine.data", n=len(ops))
        return ev

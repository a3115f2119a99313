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
* ``charge_md`` — batched fan-out over the per-owner metadata slots,
  each logged node key billed to the provider :func:`placement_hash`
  assigns it (the live engines never compute placement);
* down data endpoints fail ``store``/``fetch`` with
  :class:`~repro.common.errors.RpcTimeoutError` after the retry
  policy's ``rpc_timeout`` of simulated time. Data providers are the
  only endpoints the DES crashes (fig7's fault model): metadata lives in
  the in-process DHT on every runtime, so it has no crash model here.
  The engine keeps the down set itself because on the DES it *is* the
  crashed node's model: there is no provider object to refuse service.

An op starts when it is made: ``store`` and ``fetch`` begin their
transfer at creation, not when the core yields them. A core's fan-out
makes every op before it awaits any, so the transfers of a page ship
all start in one instant and the network coalesces them into one
reallocation at the end-of-instant flush. A store that times out
before its core gets round to awaiting it keeps its failure for that
await.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Set

from ..blobseer.metadata.dht import placement_hash
from ..blobseer.metadata.segment_tree import NodeKey, key_bytes
from ..common.errors import RpcTimeoutError
from ..obs import NULL_OBS, Observability
from ..sim.cluster import SimCluster
from ..sim.core import Event
from ..sim.resources import Resource, batch_round_trips
from .base import Engine, Payload, RetryPolicy

#: Timeout and backoff magnitudes of the simulated clients, in
#: simulated seconds.
DES_RETRY = RetryPolicy(
    rpc_timeout=0.5, base_delay=0.05, max_delay=2.0, max_attempts=6
)

#: entries the owner memo holds before it starts over: enough for the
#: keys a figure's live tree paths share, few enough that a long
#: history does not keep a slot per key
_OWNER_MEMO_MAX = 4096


class _OwnerMemo(dict):
    """Node key -> the service slot of the metadata provider that owns
    it, filled on a miss from :func:`placement_hash` and emptied when
    it reaches :data:`_OWNER_MEMO_MAX` entries. An owner is a pure
    function of its key, so a hit bills what hashing would."""

    __slots__ = ("slots",)

    def __init__(self, slots: List[Resource]) -> None:
        super().__init__()
        self.slots = slots

    def __missing__(self, key: NodeKey) -> Resource:
        if len(self) >= _OWNER_MEMO_MAX:
            self.clear()
        slots = self.slots
        slot = self[key] = slots[placement_hash(key_bytes(key), len(slots))]
        return slot


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

    bills_metadata = True

    def __init__(
        self, cluster: SimCluster, obs: Optional[Observability] = None
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.retry = DES_RETRY
        self._seed = cluster.config.seed
        self._control: dict[str, _Control] = {}
        self._md_owner = _OwnerMemo([])
        self._down: Set[str] = set()
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
        self._c_rpc_timeouts = obs.registry.counter("net.rpc_timeouts")

    def _spanned(self, ev: Event, parent, name: str, cat: str, **args: Any) -> Event:
        """Open one op span under *parent* now (creation time) and finish
        it when *ev* fires — failed ops record their exception type."""
        sp = self._tracer.start(name, cat=cat, parent=parent, **args)

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
            Resource(self.env),
            service_time,
            method_services,
        )

    def bind_md(self, n_owners: int) -> None:
        """Register the metadata providers (one service slot each)."""
        self._md_owner = _OwnerMemo(
            [Resource(self.env) for _ in range(n_owners)]
        )

    # -- fault state --------------------------------------------------------

    def fail_endpoint(self, name: str) -> None:
        self._down.add(name)

    def recover_endpoint(self, name: str) -> None:
        self._down.discard(name)

    # -- clock / flow -------------------------------------------------------

    def now(self) -> float:
        return self.env.now

    def sleep(self, parent, dt: float) -> Event:
        ev = self.env.timeout(dt)
        if self._tracer is not None:
            return self._spanned(ev, parent, "engine.sleep", "engine.retry", dt=dt)
        return ev

    def run(self, gen: Generator) -> Event:
        """Wrap a protocol generator in a kernel process (its event)."""
        return self.env.process(gen)

    # -- control plane ------------------------------------------------------

    def call(self, parent, endpoint: str, method: str, *args: Any) -> Event:
        ctl = self._control[endpoint]
        ev = ctl.slot.round_trip(
            self.cluster.config.latency,
            ctl.method_services.get(method, ctl.service),
            getattr(ctl.adapter, method),
            args,
        )
        if self._tracer is not None:
            return self._spanned(
                ev, parent, f"engine.call:{endpoint}.{method}", "engine.call"
            )
        return ev

    def wait(self, parent, endpoint: str, method: str, *args: Any) -> Event:
        """Uncharged wait: the adapter may hand back a condition event."""
        out = getattr(self._control[endpoint].adapter, method)(*args)
        if isinstance(out, Event):
            ev = out
        else:
            ev = Event(self.env)
            ev.succeed(out)
        if self._tracer is not None:
            return self._spanned(
                ev, parent, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return ev

    # -- data plane ---------------------------------------------------------

    def _timeout_fail(self, what: str) -> Event:
        """An op that fails with a charged RPC timeout."""
        self._c_rpc_timeouts.inc()
        ev = Event(self.env)
        # a fan-out awaits its ops in order, so this one may fail before
        # its waiter yields it: the callback keeps the kernel from
        # raising it unwaited, and the waiter reads the failure then
        ev.callbacks.append(lambda ev: None)
        self.env.call_in(
            self.retry.rpc_timeout,
            lambda: ev.fail(RpcTimeoutError(f"{what} timed out")),
        )
        return ev

    def store(
        self, parent, client: str, endpoint: str, page_id: Any, payload: Payload
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
                t, parent, "engine.store", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return t

    def fetch(
        self,
        parent,
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
                done, parent, "engine.fetch", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return done

    def charge_md(self, parent, keys: Sequence[NodeKey]) -> Event:
        # the only placement computation in the system: each node key
        # bills the slot of the metadata provider that owns it, through
        # a bounded memo — concurrent ops bill the same tree paths, so
        # about half the keys are hits
        done = Event(self.env)
        cfg = self.cluster.config
        batch_round_trips(
            list(map(self._md_owner.__getitem__, keys)),
            cfg.latency,
            cfg.metadata_rpc_time,
            done,
        )
        if self._tracer is not None:
            return self._spanned(
                done, parent, "engine.charge_md", "engine.md", rpcs=len(keys)
            )
        return done

"""The threaded engine: protocol ops as lazy thunks on wall clock.

Ops are :class:`_Op` values — deferred calls resolved by the synchronous
trampoline in :meth:`ThreadedEngine.run`. Nothing happens when an op is
*created*; the trampoline evaluates it when the protocol generator
yields it and sends the result (or throws the exception) back in. That
keeps op-creation order identical to the DES engine, which is what the
parity suite compares.

Thread safety comes from the bound components (the threaded version
manager, provider stores, the namespace), not from the engine: each
caller thread drives its own generator through its own trampoline.

A provider that refuses service (:class:`ProviderUnavailableError`) is
surfaced to the cores as :class:`RpcTimeoutError` — the same failure
shape the DES engine produces for a crashed node — and counted on the
``net.rpc_timeouts`` counter so the threaded runtime exposes the same
fault telemetry as the simulator.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator, Optional, Sequence, Set

from ..common.errors import ProviderUnavailableError, RpcTimeoutError
from ..common.rng import substream
from ..faults.plan import RetryPolicy
from ..obs import NULL_OBS, NULL_SPAN, Observability
from .base import Engine, Payload

#: Backoff magnitudes for the in-process runtime: the same sweep shape
#: as the simulator's policy, but over wall milliseconds instead of
#: simulated seconds, so an all-replicas-down sweep costs ~0.1 s of real
#: time rather than multiple seconds.
THREADED_RETRY = RetryPolicy(
    rpc_timeout=0.5, base_delay=0.005, max_delay=0.05, max_attempts=6
)


class _Op:
    """A deferred engine action; resolved only by the trampoline.

    *awaitable* ops are the asyncio engine's: their ``fn`` returns
    something its trampoline must ``await``. The op says so itself, so
    no trampoline ever inspects a result to find out — an endpoint may
    *return* a coroutine or a future as a plain value.
    """

    __slots__ = ("fn", "awaitable")

    def __init__(self, fn: Callable[[], Any], awaitable: bool = False) -> None:
        self.fn = fn
        self.awaitable = awaitable


_NOOP = _Op(lambda: None)


class ThreadedEngine(Engine):
    """Engine over in-process components and the wall clock."""

    def __init__(
        self,
        seed: int = 0,
        obs: Optional[Observability] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.retry = retry or THREADED_RETRY
        self._seed = seed
        self._control: dict[str, Any] = {}
        # endpoint -> (store_fn(page_id, data), load_fn(page_id, off, n))
        self._data: dict[str, tuple] = {}
        self._down: Set[str] = set()
        self.use_obs(obs or NULL_OBS)

    def use_obs(self, obs: Observability) -> None:
        """(Re)wire observability — harnesses built with NULL_OBS can
        switch a live engine onto an enabled bundle."""
        self.obs = obs
        self._tracer = obs.tracer if obs.tracer.enabled else None
        self._trace_parent = None
        self._c_rpc_timeouts = obs.registry.counter("net.rpc_timeouts")

    def _spanned(self, op: _Op, name: str, cat: str, **args: Any) -> _Op:
        """Open one op span now (creation time, matching the DES engine's
        span start order) and finish it when the trampoline resolves the
        thunk — failed ops record their exception type. Below an
        unrecorded parent the op is returned as it came."""
        parent = self._take_parent()
        if parent is NULL_SPAN:
            return op
        sp = self._tracer.start(name, cat=cat, parent=parent, **args)
        fn = op.fn

        def traced() -> Any:
            try:
                return fn()
            except BaseException as exc:
                sp.set(error=type(exc).__name__)
                raise
            finally:
                sp.finish()

        op.fn = traced
        return op

    # -- wiring -------------------------------------------------------------

    def bind(self, name: str, adapter: Any) -> None:
        """Register a control endpoint (calls run in the caller thread)."""
        self._control[name] = adapter

    def bind_data(
        self,
        name: str,
        store_fn: Callable[[Any, bytes], Any],
        load_fn: Callable[[Any, int, int], bytes],
    ) -> None:
        """Register a data endpoint's store/load entry points."""
        self._data[name] = (store_fn, load_fn)

    # -- fault state --------------------------------------------------------

    def fail_endpoint(self, name: str) -> None:
        self._down.add(name)

    def recover_endpoint(self, name: str) -> None:
        self._down.discard(name)

    def is_down(self, endpoint: str) -> bool:
        return endpoint in self._down

    @property
    def faults_active(self) -> bool:
        # real components fail organically; the cores must always take
        # the failure-tolerant paths
        return True

    # -- clock / flow -------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, dt: float) -> _Op:
        op = _Op(lambda: time.sleep(dt))
        if self._tracer is not None:
            return self._spanned(op, "engine.sleep", "engine.retry", dt=dt)
        return op

    def run(self, gen: Generator) -> Any:
        """The trampoline: drive *gen* to completion in this thread."""
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                value = op.fn()
            except BaseException as exc:  # noqa: BLE001 - re-thrown into gen
                try:
                    op = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
            else:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value

    def rng(self, *names):
        return substream(self._seed, *names)

    # -- control plane ------------------------------------------------------

    def call(self, endpoint: str, method: str, *args: Any) -> _Op:
        adapter = self._control[endpoint]
        op = _Op(lambda: getattr(adapter, method)(*args))
        if self._tracer is not None:
            return self._spanned(
                op, f"engine.call:{endpoint}.{method}", "engine.call"
            )
        return op

    def wait(self, endpoint: str, method: str, *args: Any) -> _Op:
        # a wait is just a blocking call here; the charged/uncharged
        # distinction only exists under the simulator's cost model —
        # but its span keeps the DES engine's distinct wait name
        adapter = self._control[endpoint]
        op = _Op(lambda: getattr(adapter, method)(*args))
        if self._tracer is not None:
            return self._spanned(
                op, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return op

    # -- data plane ---------------------------------------------------------

    def store(
        self, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> _Op:
        store_fn = self._data[endpoint][0]

        def do() -> None:
            try:
                store_fn(page_id, payload.data)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _Op(do)
        if self._tracer is not None:
            return self._spanned(
                op, "engine.store", "engine.data",
                endpoint=endpoint, nbytes=len(payload),
            )
        return op

    def fetch(
        self,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> _Op:
        load_fn = self._data[endpoint][1]

        def do() -> bytes:
            try:
                return load_fn(page_id, data_offset, nbytes)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _Op(do)
        if self._tracer is not None:
            return self._spanned(
                op, "engine.fetch", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return op

    def charge_md(self, owners: Sequence[int]) -> _Op:
        # the DHT is in-process: metadata RPCs cost nothing here, but
        # the op still gets its span so both runtimes' trees match
        if self._tracer is not None:
            return self._spanned(
                _Op(lambda: None),
                "engine.charge_md",
                "engine.md",
                rpcs=len(owners),
            )
        return _NOOP

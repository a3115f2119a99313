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
Creating an op writes no engine state: its span's parent arrives as the
op's first argument, so a client thread's op spans never land under
another thread's operation.

A provider that refuses service (:class:`ProviderUnavailableError`) is
surfaced to the cores as :class:`RpcTimeoutError` — the same failure
shape the DES engine produces for a crashed node — and counted on the
``net.rpc_timeouts`` counter so the threaded runtime exposes the same
fault telemetry as the simulator. The engine keeps no view of which
endpoints are down: the crashed component refuses service itself.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator, Mapping, Optional, Sequence

from ..common.errors import ProviderUnavailableError, RpcTimeoutError
from ..obs import NULL_OBS, NULL_SPAN, Observability
from .base import Engine, Payload, RetryPolicy

#: Backoff magnitudes for the in-process runtime: the same sweep shape
#: as the simulator's policy, but over wall milliseconds instead of
#: simulated seconds, so an all-replicas-down sweep costs ~0.1 s of real
#: time rather than multiple seconds.
THREADED_RETRY = RetryPolicy(
    rpc_timeout=0.5, base_delay=0.005, max_delay=0.05, max_attempts=6
)


class _Op:
    """A deferred engine action; resolved only by the trampoline."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn


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
        #: data endpoint name -> its Provider (see bind_providers)
        self._providers: Mapping[str, Any] = {}
        self.use_obs(obs or NULL_OBS)

    def use_obs(self, obs: Observability) -> None:
        """(Re)wire observability — harnesses built with NULL_OBS can
        switch a live engine onto an enabled bundle."""
        self.obs = obs
        self._tracer = obs.tracer if obs.tracer.enabled else None
        self._c_rpc_timeouts = obs.registry.counter("net.rpc_timeouts")

    def _spanned(self, op: _Op, parent, name: str, cat: str, **args: Any) -> _Op:
        """Open one op span under *parent* now (creation time, matching
        the DES engine's span start order) and finish it when the
        trampoline resolves the thunk — failed ops record their exception
        type. Below an unrecorded parent the op is returned as it came."""
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

    def bind_providers(self, providers: Mapping[str, Any]) -> None:
        """Register the data endpoints: *providers* maps each name to a
        :class:`~repro.blobseer.provider.Provider`. It is read on every
        store and fetch, so a provider swapped into it (a restart) is
        the one served."""
        self._providers = providers

    # -- clock / flow -------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, parent, dt: float) -> _Op:
        op = _Op(lambda: time.sleep(dt))
        if self._tracer is not None:
            return self._spanned(op, parent, "engine.sleep", "engine.retry", dt=dt)
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

    # -- control plane ------------------------------------------------------

    def call(self, parent, endpoint: str, method: str, *args: Any) -> _Op:
        adapter = self._control[endpoint]
        op = _Op(lambda: getattr(adapter, method)(*args))
        if self._tracer is not None:
            return self._spanned(
                op, parent, f"engine.call:{endpoint}.{method}", "engine.call"
            )
        return op

    def wait(self, parent, endpoint: str, method: str, *args: Any) -> _Op:
        # a wait is just a blocking call here; the charged/uncharged
        # distinction only exists under the simulator's cost model —
        # but its span keeps the DES engine's distinct wait name
        adapter = self._control[endpoint]
        op = _Op(lambda: getattr(adapter, method)(*args))
        if self._tracer is not None:
            return self._spanned(
                op, parent, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return op

    # -- data plane ---------------------------------------------------------

    def store(
        self, parent, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> _Op:
        providers = self._providers

        def do() -> None:
            try:
                providers[endpoint].put_page(page_id, payload.data)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _Op(do)
        if self._tracer is not None:
            return self._spanned(
                op, parent, "engine.store", "engine.data",
                endpoint=endpoint, nbytes=len(payload),
            )
        return op

    def fetch(
        self,
        parent,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> _Op:
        providers = self._providers

        def do() -> bytes:
            try:
                return providers[endpoint].get_page(page_id, data_offset, nbytes)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _Op(do)
        if self._tracer is not None:
            return self._spanned(
                op, parent, "engine.fetch", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return op

    def charge_md(self, parent, keys: Sequence[Any]) -> Optional[_Op]:
        # the DHT is in-process: metadata RPCs cost nothing here, so
        # there is no op at all unless its span keeps the runtimes'
        # trace trees alike — none below an unrecorded parent
        if self._tracer is None or parent is NULL_SPAN:
            return None
        return self._spanned(
            _Op(lambda: None),
            parent,
            "engine.charge_md",
            "engine.md",
            rpcs=len(keys),
        )

"""The asyncio engine: protocol ops as awaitables on one event loop.

The third :class:`~repro.engine.base.Engine` implementation. Like the
threaded engine it binds the *real* lock-based components (the threaded
version manager, provider stores, the namespace manager) and moves real
bytes; unlike it, many protocol generators run concurrently as asyncio
tasks on a single event loop — which is what the HTTP front-end
(:mod:`repro.server`) needs to serve hundreds of sockets from one
process.

Op mechanics are :mod:`repro.engine.threaded`'s: an op is a lazy
``_Op`` thunk, created (and recorded, for the parity suite) at
``engine.call(...)`` time and resolved only when the async trampoline in
:meth:`AsyncioEngine.run` awaits it — so op-*creation* order is
identical to the other two engines for the same scenario, which is what
``tests/engine/test_parity.py`` asserts.

The one genuinely asyncio-specific concern is *blocking* endpoint
methods. Control calls are short critical sections (dictionary updates
under a mutex) and run inline on the loop; but ``engine.wait`` ops —
the metadata-turn and publish waits — park on a ``threading.Condition``
inside the version manager until **another** client's commit signals
them. Running those inline would wedge the whole loop, so wait ops are
shipped to a dedicated thread pool. Progress never *requires* more than
one pool slot: the commits that release waiters run inline on the loop,
so a saturated pool only queues waiters (latency), it cannot deadlock
them.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Generator, Optional

from ..faults.plan import RetryPolicy
from ..obs import Observability
from .threaded import ThreadedEngine, _Op


class AsyncioEngine(ThreadedEngine):
    """Engine over in-process components and one asyncio event loop.

    Wiring, fault state, the clock and every op that is a plain inline
    thunk (``call``, ``store``, ``fetch``, ``charge_md``...) are the
    threaded engine's; only the scheduling policy differs: an op's
    ``fn`` may return an awaitable (sleeps, executor-shipped waits) that
    the async trampoline awaits.
    """

    def __init__(
        self,
        seed: int = 0,
        obs: Optional[Observability] = None,
        retry: Optional[RetryPolicy] = None,
        max_wait_threads: int = 256,
    ) -> None:
        """*max_wait_threads* bounds the pool that carries blocking
        ``wait`` ops — size it at the expected number of concurrently
        queued appenders (threads parked on a condition variable are
        cheap; an undersized pool adds queueing latency, never
        deadlock)."""
        super().__init__(seed=seed, obs=obs, retry=retry)
        self._waitpool = ThreadPoolExecutor(
            max_workers=max_wait_threads, thread_name_prefix="aio-engine-wait"
        )
        self._closed = False

    def close(self) -> None:
        """Release the wait-op thread pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._waitpool.shutdown(wait=False, cancel_futures=True)

    def _spanned(self, op: _Op, name: str, cat: str, **args: Any) -> _Op:
        """Open one op span now (creation time, matching the other
        engines' span start order) and finish it when the trampoline
        resolves the op — failed ops record their exception type."""
        sp = self._tracer.start(
            name, cat=cat, parent=self._take_parent(), **args
        )
        fn = op.fn

        def traced() -> Any:
            try:
                result = fn()
            except BaseException as exc:
                sp.set(error=type(exc).__name__)
                sp.finish()
                raise
            if not asyncio.isfuture(result) and not asyncio.iscoroutine(result):
                sp.finish()
                return result

            async def awaited() -> Any:
                try:
                    return await result
                except BaseException as exc:
                    sp.set(error=type(exc).__name__)
                    raise
                finally:
                    sp.finish()

            return awaited()

        op.fn = traced
        return op

    def sleep(self, dt: float) -> _Op:
        op = _Op(lambda: asyncio.sleep(dt))
        if self._tracer is not None:
            return self._spanned(op, "engine.sleep", "engine.retry", dt=dt)
        return op

    async def run(self, gen: Generator) -> Any:
        """The async trampoline: drive *gen* to completion in this task.
        (``spawn`` ops resolve to a nested ``run`` coroutine, awaited
        here — the sub-generator runs to completion, not concurrently
        with its parent, as under the threaded engine.)"""
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                value = op.fn()
                if asyncio.iscoroutine(value) or asyncio.isfuture(value):
                    value = await value
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

    def wait(self, endpoint: str, method: str, *args: Any) -> _Op:
        # a wait blocks until *another* client's call signals it — it
        # must leave the loop free, so it rides the wait thread pool
        fn = getattr(self._control[endpoint], method)
        op = _Op(
            lambda: asyncio.get_running_loop().run_in_executor(
                self._waitpool, lambda: fn(*args)
            )
        )
        if self._tracer is not None:
            return self._spanned(
                op, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return op

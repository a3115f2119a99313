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
:meth:`AsyncioEngine.run` reaches it — so op-*creation* order is
identical to the other two engines for the same scenario, which is what
``tests/engine/test_parity.py`` asserts.

The one genuinely asyncio-specific concern is *blocking* endpoint
methods. Control calls are short critical sections (dictionary updates
under a mutex) and run inline on the loop; but ``engine.wait`` ops —
the metadata-turn and publish waits — can only resolve through
**another** client's commit, so they must leave the loop free. They
never leave it: an endpoint method that can block offers a
``<method>_nowait`` twin (see
:meth:`~repro.blobseer.version_manager.ThreadedVersionManager._nowait`)
and :meth:`AsyncioEngine._wait` sleeps on a loop future instead of a
condition variable. A wait that is already decided — every wait of an
uncontended append — completes without suspending the task, touching
the loop or scheduling a timer; a blocked one is woken by the commit
that resolves it (through ``call_soon_threadsafe`` when that commit runs
on a foreign thread) or by a loop timer set no later than the earliest
lease deadline. The engine owns no thread and no pool.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Generator

from ..obs import NULL_SPAN
from .threaded import ThreadedEngine, _Op


class AsyncioEngine(ThreadedEngine):
    """Engine over in-process components and one asyncio event loop.

    Wiring, fault state, the clock and every op that is a plain inline
    thunk (``call``, ``store``, ``fetch``, ``charge_md``...) are the
    threaded engine's; only the scheduling policy differs: ``sleep``
    and ``wait`` ops are *awaitable* — their ``fn`` returns a
    coroutine that the async trampoline awaits.
    """

    def _spanned_awaitable(
        self, op: _Op, name: str, cat: str, **args: Any
    ) -> _Op:
        """:meth:`_spanned` for an awaitable op: the span finishes when
        the trampoline's ``await`` does."""
        parent = self._take_parent()
        if parent is NULL_SPAN:
            return op
        sp = self._tracer.start(name, cat=cat, parent=parent, **args)
        fn = op.fn

        async def traced() -> Any:
            try:
                return await fn()
            except BaseException as exc:
                sp.set(error=type(exc).__name__)
                raise
            finally:
                sp.finish()

        op.fn = traced
        return op

    def sleep(self, dt: float) -> _Op:
        op = _Op(lambda: asyncio.sleep(dt), awaitable=True)
        if self._tracer is not None:
            return self._spanned_awaitable(
                op, "engine.sleep", "engine.retry", dt=dt
            )
        return op

    async def run(self, gen: Generator) -> Any:
        """The async trampoline: drive *gen* to completion in this task."""
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                value = op.fn()
                if op.awaitable:
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
        adapter = self._control[endpoint]
        begin = getattr(adapter, method + "_nowait", None)
        if begin is None:
            # no twin: the method returns at once and runs inline
            return super().wait(endpoint, method, *args)
        op = _Op(lambda: self._wait(begin, args), awaitable=True)
        if self._tracer is not None:
            return self._spanned_awaitable(
                op, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return op

    @staticmethod
    async def _wait(begin, args: tuple) -> Any:
        """Sleep on the loop until the wait filed by *begin* is decided.

        The loop's form of ``ThreadedVersionManager._await``: the same
        ``nap()`` says how long to sleep (and abandons the version and
        raises when the wait has timed out); where the thread parks on
        the condition variable, this parks on a future that *wake* or a
        timer resolves. The timer is cancelled as soon as the sleep
        ends, however it ends.
        """
        loop = home = fut = None

        def arrived() -> None:
            if fut is not None and not fut.done():
                fut.set_result(None)

        def wake() -> None:
            # called under the endpoint's lock, on the thread whose
            # call decided the wait
            if fut is None:  # nobody sleeps (yet, or any more)
                return
            if threading.get_ident() == home:
                arrived()
            else:
                loop.call_soon_threadsafe(arrived)

        outcome, nap = begin(wake, *args)
        if not outcome:
            loop, home = asyncio.get_running_loop(), threading.get_ident()
            try:
                while True:
                    # before asking: a wake between the answer and the
                    # sleep must find the future it is to resolve
                    fut = loop.create_future()
                    delay = nap()
                    if delay is None:
                        break
                    timer = loop.call_later(delay, arrived)
                    try:
                        await fut
                    finally:
                        timer.cancel()
            finally:
                fut = None
        return outcome[0]

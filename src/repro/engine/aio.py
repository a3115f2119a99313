"""The served engine: the threaded trampoline, run inline on the loop.

:class:`AsyncioEngine` is :class:`~repro.engine.threaded.ThreadedEngine`
with a coroutine ``run``: the HTTP front-end (:mod:`repro.server`)
awaits it from a request's coroutine, which the connection steps from
its socket's read callback, and it drives the protocol generator to
completion through the threaded trampoline without yielding to the
loop. Socket reads and writes stay on asyncio; the operation itself is
a run of synchronous in-process calls.

That is safe because a served update never waits on another client.
Every op of an update on the in-process deployment is a synchronous
call, so an update runs from ``assign`` to ``commit`` before the loop
can start the next one: its predecessor has always resolved by the time
it asks for its metadata turn, and an update that fails gives its
ticket back at once (``BlobSeerProtocol.update``). The one way left to
block the loop is a *library* caller holding a ticket on the server's
service, which no route can do (see :class:`~repro.server.BlobServer`).
"""

from __future__ import annotations

from typing import Any, Generator

from .threaded import ThreadedEngine


class AsyncioEngine(ThreadedEngine):
    """The threaded engine, awaited from the server's event loop."""

    async def run(self, gen: Generator) -> Any:
        """Drive *gen* to completion inline; never suspends the caller."""
        return ThreadedEngine.run(self, gen)

"""Replica-read failover, shared by all three engines:

* a **seeded rotation phase** per client/stream (derived from the
  engine's named rng), stepped once per fetch, so concurrent readers
  spread over replicas instead of hammering placement order;
* **dead-node memory**: endpoints seen timing out sort last in every
  subsequent sweep and are only forgiven by a successful reply;
* a bounded sweep with **capped exponential backoff** between full
  rotations, per the engine's :class:`~repro.faults.plan.RetryPolicy`.

:func:`sweep_fetch` is an engine-parameterized generator like everything
else in :mod:`repro.engine`, so DES, threaded, and asyncio runtimes keep
operation-trace parity.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Sequence, Set

from ..common.errors import (
    PageNotFoundError,
    ReplicationError,
    RpcTimeoutError,
)
from ..obs import NULL_SPAN


class ReplicaSelector:
    """Rotation phase + dead-endpoint memory for one client or stream."""

    __slots__ = ("_rr", "dead")

    def __init__(self, rng, dead: Set[str] | None = None) -> None:
        """*rng* is a seeded generator (``engine.rng(...)``); the phase it
        yields makes the rotation deterministic per client name."""
        self._rr = itertools.count(int(rng.integers(1 << 30)))
        #: endpoints seen failing, tried last until they serve again
        self.dead: Set[str] = dead if dead is not None else set()

    def order(self, endpoints: Sequence[str]) -> List[str]:
        """The sweep order for one fetch: rotated start, dead last.

        The phase advances on every call, so consecutive fetches from
        the same selector start at consecutive replicas.
        """
        n = len(endpoints)
        start = next(self._rr) % n if n > 1 else 0
        out = [endpoints[(start + i) % n] for i in range(n)]
        if self.dead:
            out.sort(key=lambda name: name in self.dead)
        return out


def sweep_fetch(
    engine,
    selector: ReplicaSelector,
    client: str,
    endpoints: Sequence[str],
    page_id: Any,
    data_offset: int,
    nbytes: int,
    describe: str,
    parent=None,
):
    """Generator: fetch one stored object, failing over across replicas.

    Timeouts mark the endpoint dead (sorted last from then on); a
    ``PageNotFoundError`` reply leaves it alive. After each full
    rotation the sweep backs off; when the attempt budget is spent the
    fetch fails with :class:`~repro.common.errors.ReplicationError`.

    When tracing is on the whole sweep is one ``replica.sweep`` span
    (parented under *parent*) whose children are the per-attempt
    ``engine.fetch`` ops and the between-rotation backoff sleeps —
    failover cost shows up as one retry subtree in the trace.

    Returns the bytes on engines that materialize data, ``None`` on the
    DES engine.
    """
    sp = engine.obs.tracer.start(
        "replica.sweep",
        cat="engine.retry",
        parent=parent,
        replicas=len(endpoints),
    )
    traced = sp is not NULL_SPAN
    policy = engine.retry
    order = selector.order(endpoints)
    n = len(order)
    last_exc: Exception | None = None
    try:
        for attempt in range(policy.max_attempts):
            name = order[attempt % n]
            try:
                engine.trace_parent(sp)
                data = yield engine.fetch(
                    client, name, page_id, data_offset, nbytes
                )
            except RpcTimeoutError as exc:
                selector.dead.add(name)
                last_exc = exc
            except PageNotFoundError as exc:
                # the endpoint answered: alive, just missing this object
                last_exc = exc
            else:
                selector.dead.discard(name)
                if traced:
                    sp.set(attempts=attempt + 1)
                return data
            if (attempt + 1) % n == 0 and attempt + 1 < policy.max_attempts:
                # a full sweep of replicas failed: back off before retrying
                engine.trace_parent(sp)
                yield engine.sleep(policy.backoff(attempt // n))
        if traced:
            sp.set(attempts=policy.max_attempts, error="ReplicationError")
        raise ReplicationError(
            f"no replica of {describe} is readable "
            f"(endpoints {tuple(endpoints)})"
        ) from last_exc
    finally:
        sp.finish()

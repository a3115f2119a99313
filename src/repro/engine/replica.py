"""The shared replica-read policies.

PR 4 grew two divergent failover behaviours: the simulated clients swept
replicas from a globally-drawn rotated start, while the threaded clients
additionally kept per-client dead-node memory. This module is the single
policy stack all three engines now run:

* a **seeded rotation phase** per client/stream (derived from the
  engine's named rng), stepped once per fetch, so concurrent readers
  spread over replicas instead of hammering placement order;
* **dead-node memory**: endpoints seen timing out sort last in every
  subsequent sweep and are only forgiven by a successful reply;
* a bounded sweep with **capped exponential backoff** between full
  rotations, per the engine's :class:`~repro.faults.plan.RetryPolicy`.

On top of the sweep, reads go through a pluggable :class:`ReadPolicy`
(``BlobSeerConfig.read_policy``): :class:`SweepReadPolicy` is the
default single-fetch failover above, :class:`QuorumReadPolicy` contacts
R replicas per read (first reply wins — pages are immutable, so any
reply is consistent) and falls back to the sweep when the whole quorum
is unreachable. The policies are engine-parameterized generators like
everything else in :mod:`repro.engine`, so DES, threaded, and asyncio
runtimes keep operation-trace parity.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence, Set

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


class ReadPolicy(ABC):
    """How one stored object is fetched from its replica set."""

    #: registry name (mirrors ``BlobSeerConfig.read_policy``)
    name: str = ""
    #: True when the policy must run the per-piece serial path even on
    #: engines whose fault-free fast path would batch fetches (the DES
    #: ``gather``) — a quorum read is *defined* by contacting several
    #: replicas, so it cannot ride the single-fetch batch
    serial_fetch: bool = False

    @abstractmethod
    def fetch(
        self,
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
        """Generator: fetch one stored object; returns its bytes on
        engines that materialize data, ``None`` on the DES engine."""


class SweepReadPolicy(ReadPolicy):
    """The default: one fetch at a time, failing over across replicas
    (see :func:`sweep_fetch`)."""

    name = "sweep"

    def fetch(
        self,
        engine,
        selector,
        client,
        endpoints,
        page_id,
        data_offset,
        nbytes,
        describe,
        parent=None,
    ):
        return sweep_fetch(
            engine,
            selector,
            client,
            endpoints,
            page_id,
            data_offset,
            nbytes,
            describe,
            parent=parent,
        )


class QuorumReadPolicy(ReadPolicy):
    """Read R of N replicas, first consistent reply wins.

    Pages are immutable once committed, so every successful reply is
    consistent and the first one satisfies the read; the remaining
    quorum members are still contacted — the R-fold fetch load is the
    price of quorum reads, and exactly what the policy-matrix benchmark
    measures. Timeouts feed the selector's dead-node memory. When the
    whole quorum fails the read falls back to sweeping the remaining
    replicas (dead ones sort last), so a quorum read is never *less*
    available than a sweep.
    """

    name = "quorum"
    serial_fetch = True

    def __init__(self, quorum: int = 2, counter=None) -> None:
        if quorum < 1:
            raise ValueError("quorum must be >= 1")
        self.quorum = quorum
        #: ``placement.quorum_reads`` counter (optional)
        self._counter = counter

    def fetch(
        self,
        engine,
        selector,
        client,
        endpoints,
        page_id,
        data_offset,
        nbytes,
        describe,
        parent=None,
    ):
        if self._counter is not None:
            self._counter.inc()
        order = selector.order(endpoints)
        r = min(self.quorum, len(order))
        sp = engine.obs.tracer.start(
            "replica.quorum",
            cat="engine.retry",
            parent=parent,
            replicas=len(endpoints),
            quorum=r,
        )
        traced = sp is not NULL_SPAN
        data: Optional[bytes] = None
        got_reply = False
        try:
            for name in order[:r]:
                try:
                    engine.trace_parent(sp)
                    reply = yield engine.fetch(
                        client, name, page_id, data_offset, nbytes
                    )
                except RpcTimeoutError:
                    selector.dead.add(name)
                except PageNotFoundError:
                    # the endpoint answered: alive, just missing this
                    # object — a consistent "not here", keep going
                    pass
                else:
                    selector.dead.discard(name)
                    got_reply = True
                    if data is None:
                        data = reply
            if got_reply:
                if traced:
                    sp.set(replies=r)
                return data
            # the whole quorum was unreachable: sweep the rest (the
            # selector already sorts the dead quorum members last)
            if traced:
                sp.set(fallback="sweep")
            result = yield from sweep_fetch(
                engine,
                selector,
                client,
                endpoints,
                page_id,
                data_offset,
                nbytes,
                describe,
                parent=sp if traced else parent,
            )
            return result
        finally:
            sp.finish()


def make_read_policy(config, registry=None) -> ReadPolicy:
    """The configured read policy (``read_policy`` / ``read_quorum``
    knobs); *registry* wires the ``placement.quorum_reads`` counter."""
    name = getattr(config, "read_policy", "sweep")
    if name == "sweep":
        return SweepReadPolicy()
    if name == "quorum":
        counter = (
            registry.counter("placement.quorum_reads")
            if registry is not None
            else None
        )
        return QuorumReadPolicy(
            quorum=getattr(config, "read_quorum", 2), counter=counter
        )
    raise ValueError(f"unknown read policy {name!r}")

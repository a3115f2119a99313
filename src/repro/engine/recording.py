"""A recording wrapper that captures a protocol run's RPC trace.

``RecordingEngine`` delegates every primitive to the wrapped engine and
appends a small descriptor tuple to :attr:`trace` at *op creation time*
— the moment the protocol core asks for the op, before any runtime gets
to schedule it. Creation order is therefore runtime-independent, and the
parity suite asserts the exact same trace from the DES and threaded
engines for the same scenario.

Two deliberate normalizations keep the traces comparable:

* ``sleep`` records carry no duration — backoff *structure* must match,
  but the two runtimes use different magnitudes (simulated seconds vs
  short wall delays);
* endpoint names pass through ``endpoint_label`` so callers can map the
  runtimes' different node-naming schemes onto shared labels.

The wrapper also forces :attr:`faults_active` to ``True``, so a recorded
run always takes the failure-tolerant protocol paths — the only paths
that exist on both engines. The DES batch fast paths are a production
optimization, never part of a parity trace.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from .base import Engine, Payload


class RecordingEngine(Engine):
    """Engine decorator: same semantics, plus an RPC trace."""

    def __init__(
        self,
        inner: Engine,
        endpoint_label: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.inner = inner
        self.retry = inner.retry
        self.trace: List[Tuple] = []
        self._label = endpoint_label or (lambda name: name)

    # -- tracing (forwarded: spans belong to the real runtime) --------------

    @property
    def obs(self):
        return self.inner.obs

    def use_obs(self, obs) -> None:
        self.inner.use_obs(obs)

    def trace_parent(self, span) -> None:
        self.inner.trace_parent(span)

    # -- clock / flow (pass-through) ----------------------------------------

    def now(self) -> float:
        return self.inner.now()

    def sleep(self, dt: float) -> Any:
        self.trace.append(("sleep",))
        return self.inner.sleep(dt)

    def run(self, gen: Generator) -> Any:
        return self.inner.run(gen)

    def rng(self, *names):
        return self.inner.rng(*names)

    # -- recorded primitives ------------------------------------------------

    def call(self, endpoint: str, method: str, *args: Any) -> Any:
        self.trace.append(("call", endpoint, method))
        return self.inner.call(endpoint, method, *args)

    def wait(self, endpoint: str, method: str, *args: Any) -> Any:
        self.trace.append(("wait", endpoint, method))
        return self.inner.wait(endpoint, method, *args)

    def store(
        self, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> Any:
        self.trace.append(("store", self._label(endpoint), len(payload)))
        return self.inner.store(client, endpoint, page_id, payload)

    def fetch(
        self,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> Any:
        self.trace.append(("fetch", self._label(endpoint), nbytes))
        return self.inner.fetch(client, endpoint, page_id, data_offset, nbytes)

    def charge_md(self, owners: Sequence[int]) -> Any:
        self.trace.append(("md", tuple(owners)))
        return self.inner.charge_md(owners)

    # -- fault view ---------------------------------------------------------

    def is_down(self, endpoint: str) -> bool:
        return self.inner.is_down(endpoint)

    @property
    def faults_active(self) -> bool:
        # always exercise the failure-tolerant paths: they are the only
        # ones implemented by both engines, hence the only comparable ones
        return True

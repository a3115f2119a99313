"""The engine interface — the sans-IO boundary of the client stack.

A protocol core (``repro/*/protocol.py``) is a plain generator that
*yields engine ops* and receives their results. It never touches the
clock, threads, sockets, or the DES kernel: everything effectful goes
through one of the primitives below, so the same core runs unchanged on
the discrete-event simulator (:class:`~repro.engine.des.DesEngine`) and
on the threaded in-process runtime
(:class:`~repro.engine.threaded.ThreadedEngine`).

The op contract:

* Ops are opaque — a core must only create them via engine methods and
  ``yield`` them immediately (the DES engine hands back live kernel
  events; the threaded engine hands back lazy thunks resolved by its
  trampoline).
* ``yield op`` evaluates to the op's result; a failed op raises its
  exception at the ``yield`` site.
* Op *creation order* is the protocol's RPC trace. The recording
  wrapper (:class:`~repro.engine.recording.RecordingEngine`) captures
  descriptors at creation time, which is why identical scenarios must
  produce identical sequences under both engines.

The data plane moves :class:`Payload` values: real ``bytes`` on the
threaded engine, a byte *count* on the DES engine (the simulator charges
transport for sized-but-unmaterialized pages).
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence

from ..faults.plan import RetryPolicy


class Payload:
    """Bytes-or-size: the one data-plane currency both engines accept."""

    __slots__ = ("data", "nbytes")

    def __init__(self, data: Optional[bytes] = None, nbytes: Optional[int] = None):
        if data is None and nbytes is None:
            raise ValueError("payload needs data or a size")
        self.data = data
        self.nbytes = len(data) if data is not None else int(nbytes)

    def slice(self, lo: int, hi: int) -> "Payload":
        """The payload restricted to ``[lo, hi)`` of its byte range."""
        if self.data is not None:
            return Payload(data=self.data[lo:hi])
        return Payload(nbytes=max(0, min(hi, self.nbytes) - lo))

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bytes" if self.data is not None else "sized"
        return f"Payload({kind}, {self.nbytes})"


class Engine(abc.ABC):
    """Runtime services a protocol core may use, and nothing else.

    Attributes set by implementations:

    * ``retry`` — the :class:`~repro.faults.plan.RetryPolicy` active for
      this runtime (timeout charging, backoff magnitudes).
    * ``faults_active`` — when ``False`` the core may take batched
      fast paths that assume no endpoint can fail mid-operation. The
      threaded engine always reports ``True`` (real components fail
      organically); the DES engine flips it on first injection so the
      fault-free hot paths stay branch-cheap.

    **Causal tracing.** Both runtimes emit one span per op — named after
    the *control endpoint* (``engine.call:vm.commit``), never the
    runtime's node names, so the two engines produce identical span
    trees for identical scenarios (the trace-parity suite asserts it).
    A protocol core parents those op spans by calling
    :meth:`trace_parent` immediately before creating an op; the engine
    consumes the parent on the next op creation (consume-on-create, so
    a stale parent can never misattach to a later unrelated op). An op
    created under an unrecorded parent (``NULL_SPAN`` — an unsampled
    request of the live server) gets no span. With
    tracing disabled the whole mechanism is one attribute store per
    call site and ``_tracer`` stays ``None`` — the NULL_OBS fast path.
    """

    retry: RetryPolicy

    #: the enabled tracer, or ``None`` when observability is off —
    #: implementations cache this so every op pays one None-check
    _tracer = None
    #: parent span for the next op created (consumed on creation)
    _trace_parent = None

    def trace_parent(self, span) -> None:
        """Parent the *next* op's span under *span* (one-shot)."""
        self._trace_parent = span

    def _take_parent(self):
        """Consume the pending op-span parent (internal)."""
        parent = self._trace_parent
        if parent is not None:
            self._trace_parent = None
        return parent

    # -- clock / flow -------------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float:
        """The runtime's clock (simulated seconds or wall seconds)."""

    @abc.abstractmethod
    def sleep(self, dt: float) -> Any:
        """Op: resume after *dt* seconds."""

    @abc.abstractmethod
    def run(self, gen) -> Any:
        """Drive a protocol generator to completion, returning its value.

        On the threaded engine this is the synchronous trampoline; on
        the DES engine it wraps the generator in a kernel process (the
        caller then waits for the process event inside the simulation).
        """

    # -- control plane ------------------------------------------------------

    @abc.abstractmethod
    def call(self, endpoint: str, method: str, *args: Any) -> Any:
        """Op: one charged RPC to a bound control endpoint.

        The result is the endpoint method's return value; exceptions it
        raises surface at the ``yield``.
        """

    @abc.abstractmethod
    def wait(self, endpoint: str, method: str, *args: Any) -> Any:
        """Op: an *uncharged* wait on a control endpoint condition.

        Used for the metadata-turn wait: the caller blocks until the
        version manager signals its turn, without occupying the
        endpoint's service slot (a charged call would deadlock — the
        wait can only resolve through other clients' calls).
        """

    # -- data plane ---------------------------------------------------------

    @abc.abstractmethod
    def store(self, client: str, endpoint: str, page_id: Any, payload: Payload) -> Any:
        """Op: ship one stored object to a data endpoint (ack on receipt).

        Fails with :class:`~repro.common.errors.RpcTimeoutError` when
        the endpoint is down (charged in sim time on the DES engine).
        """

    @abc.abstractmethod
    def fetch(
        self, client: str, endpoint: str, page_id: Any, data_offset: int, nbytes: int
    ) -> Any:
        """Op: read a byte range of one stored object from a data endpoint.

        Resolves to the bytes on the threaded engine and to ``None`` on
        the DES engine (sized transport only). Fails with
        ``RpcTimeoutError`` (down endpoint, charged) or
        ``PageNotFoundError`` (endpoint alive but missing the object).
        """

    @abc.abstractmethod
    def charge_md(self, keys: Sequence[Any]) -> Any:
        """Op: charge a non-empty batch of metadata RPCs, one per tree
        node key accessed (a :class:`~repro.blobseer.metadata.dht.RecordingStore`
        log).

        One op is one fan-out wave: the DES engine maps each key to its
        owning metadata provider
        (:func:`~repro.blobseer.metadata.dht.placement_hash`) and runs
        the whole batch as one
        :func:`~repro.sim.resources.batch_round_trips` over the per-owner
        slots, so a group-commit leader that concatenates its
        boundary-read and build logs pays one DHT round trip per *node
        set*. The live engines resolve immediately and never compute
        placement (their DHT is in-process).
        """

    # -- fault / liveness view ---------------------------------------------

    @abc.abstractmethod
    def is_down(self, endpoint: str) -> bool:
        """Whether the engine knows the endpoint to be crashed."""

    @property
    @abc.abstractmethod
    def faults_active(self) -> bool:
        """Whether the core must use the failure-tolerant paths."""

    @abc.abstractmethod
    def rng(self, *names):
        """A named, seeded ``numpy`` generator substream."""

    # -- DES-only batch fast paths ------------------------------------------
    # The fault-free DES hot paths batch whole page fan-outs into one
    # network reallocation. Cores only reach these when
    # ``faults_active`` is False, or from ``HDFSProtocol.read_range``,
    # which only the simulated HDFS calls; neither happens on the
    # threaded engine, so it need not implement them.

    def ship_many(
        self,
        client: str,
        placements: Sequence[Sequence[str]],
        sizes: Sequence[int],
    ) -> List[Any]:
        """Ops, one per page: batch-ship every (page, replica) transfer."""
        raise NotImplementedError("ship_many is a fault-free fast path")

    def gather(self, ops: List[Any]) -> Any:
        """Op: resume when every op in *ops* has resolved."""
        raise NotImplementedError("gather is a fault-free fast path")

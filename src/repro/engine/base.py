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
  ``yield`` each one at most once (the DES engine hands back live kernel
  events; the threaded engine hands back lazy thunks resolved by its
  trampoline).
* ``yield op`` evaluates to the op's result; a failed op raises its
  exception at the ``yield`` site.
* A fan-out makes every op first, then yields them in order. A DES op
  starts when it is made, so the fan-out's transfers all start in one
  instant; a threaded op runs when it is yielded, so they run in
  order. The cores have this one path on every engine.
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
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..common.rng import Pcg64, stream


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeout/backoff/attempt budget of the failure-tolerant paths."""

    #: what one RPC to a crashed node costs before the client gives up on it
    rpc_timeout: float = 0.5
    #: first backoff delay between retry sweeps
    base_delay: float = 0.05
    #: backoff ceiling
    max_delay: float = 2.0
    #: total attempts (across replicas and sweeps) before the op fails
    max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, sweep: int) -> float:
        """Capped exponential delay before retry sweep *sweep* (0-based)."""
        return min(self.max_delay, self.base_delay * (2.0 ** sweep))


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

    * ``retry`` — the :class:`RetryPolicy` active for
      this runtime (timeout charging, backoff magnitudes).
    * ``_seed`` — the run's root seed, which :meth:`rng` derives from.

    **Causal tracing.** Both runtimes emit one span per op — named after
    the *control endpoint* (``engine.call:vm.commit``), never the
    runtime's node names, so the two engines produce identical span
    trees for identical scenarios (the trace-parity suite asserts it).
    Every op primitive takes the op span's parent as its first
    positional argument: a protocol core passes its operation span
    (``blobseer.append``, ``bsfs.read``, ...), or a group span that
    holds several ops (``pages.ship``, ``pages.fetch``,
    ``replica.sweep``), or ``None`` for a root. Creating an op writes no
    engine state, so concurrent callers of one engine cannot misparent
    each other's ops. An op created under an unrecorded parent
    (``NULL_SPAN`` — an unsampled request of the live server) gets no
    span. With tracing disabled ``_tracer`` stays ``None`` and the
    parent is never read — the NULL_OBS fast path.
    """

    retry: RetryPolicy

    #: whether :meth:`charge_md` bills metadata RPCs — only then does a
    #: client node cache save anything, so only then is one consulted
    bills_metadata = False

    #: the enabled tracer, or ``None`` when observability is off —
    #: implementations cache this so every op pays one None-check
    _tracer = None

    # -- clock / flow -------------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float:
        """The runtime's clock (simulated seconds or wall seconds)."""

    @abc.abstractmethod
    def sleep(self, parent, dt: float) -> Any:
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
    def call(self, parent, endpoint: str, method: str, *args: Any) -> Any:
        """Op: one charged RPC to a bound control endpoint.

        The result is the endpoint method's return value; exceptions it
        raises surface at the ``yield``.
        """

    @abc.abstractmethod
    def wait(self, parent, endpoint: str, method: str, *args: Any) -> Any:
        """Op: an *uncharged* wait on a control endpoint condition.

        Used for the metadata-turn wait: the caller blocks until the
        version manager signals its turn, without occupying the
        endpoint's service slot (a charged call would deadlock — the
        wait can only resolve through other clients' calls).
        """

    # -- data plane ---------------------------------------------------------

    @abc.abstractmethod
    def store(
        self, parent, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> Any:
        """Op: ship one stored object to a data endpoint (ack on receipt).

        Fails with :class:`~repro.common.errors.RpcTimeoutError` when
        the endpoint is down (charged in sim time on the DES engine).
        """

    @abc.abstractmethod
    def fetch(
        self,
        parent,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> Any:
        """Op: read a byte range of one stored object from a data endpoint.

        Resolves to the bytes on the threaded engine and to ``None`` on
        the DES engine (sized transport only). Fails with
        ``RpcTimeoutError`` (down endpoint, charged) or
        ``PageNotFoundError`` (endpoint alive but missing the object).
        """

    @abc.abstractmethod
    def charge_md(self, parent, keys: Sequence[Any]) -> Any:
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
        set*. The live engines never compute placement (their DHT is
        in-process): with a tracer the op only records its span, and
        without one they return ``None`` and the core yields nothing.
        """

    def rng(self, *names) -> Pcg64:
        """The named substream of the run's seed (``_seed``).

        An in-tree :class:`~repro.common.rng.Pcg64`, not a numpy
        generator: it draws exactly what ``numpy.random.default_rng``
        would from the same seed, but loading it costs the served
        process no numpy. Its only caller is the replica selector's
        phase, one ``integers`` draw per client.
        """
        return stream(self._seed, *names)

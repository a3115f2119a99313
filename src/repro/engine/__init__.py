"""Pluggable client runtimes behind one sans-IO protocol boundary.

The protocol logic of the BlobSeer, HDFS, and BSFS clients lives in
``repro/*/protocol.py`` as engine-parameterized generators; this package
provides the runtimes they plug into:

* :class:`~repro.engine.base.Engine` — the op interface and
  :class:`~repro.engine.base.Payload` data currency;
* :class:`~repro.engine.des.DesEngine` — ops as simulation kernel
  events, charged against the cluster cost model (imported from its
  module, so that the live runtimes load no simulator);
* :class:`~repro.engine.threaded.ThreadedEngine` — ops as lazy thunks
  resolved by a synchronous trampoline on the wall clock;
* :class:`~repro.engine.aio.AsyncioEngine` — the threaded engine with a
  coroutine ``run``, which the HTTP front-end awaits: its operations run
  inline on the event loop;
* :class:`~repro.engine.recording.RecordingEngine` — a decorator that
  captures the op-creation trace for the engine-parity suite;
* :mod:`~repro.engine.replica` — the shared replica-failover policy
  (seeded rotation + dead-node memory + bounded backoff sweeps).
"""

from .aio import AsyncioEngine
from .base import Engine, Payload
from .recording import RecordingEngine
from .replica import ReplicaSelector, sweep_fetch
from .threaded import THREADED_RETRY, ThreadedEngine

__all__ = [
    "Engine",
    "Payload",
    "ThreadedEngine",
    "AsyncioEngine",
    "THREADED_RETRY",
    "RecordingEngine",
    "ReplicaSelector",
    "sweep_fetch",
]

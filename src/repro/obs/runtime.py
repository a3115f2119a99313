"""Interpreter-runtime instruments: what the cyclic collector costs.

The per-layer time budgets attribute host time to the repo's own
modules; the collector's pauses land inside whichever layer happened to
allocate the object that tripped a collection, so without its own row
the collector's share is invisible (it was a third of an open-loop
simulation's host time before the kernel learned to pause it).
:func:`gc_metrics` gives it that row:

* ``runtime.gc.collections.gen0`` / ``gen1`` / ``gen2`` — collections
  run, by the oldest generation examined;
* ``runtime.gc.pause_s`` — wall seconds each collection stopped the
  program for.

The instruments are fed from :data:`gc.callbacks`, so the cost is two
callback invocations per *collection* (~2.6 µs together, some 700
times per 20,000 live appends) and nothing per operation.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator

from .metrics import MetricsRegistry


@contextmanager
def gc_metrics(registry: MetricsRegistry) -> Iterator[None]:
    """Record every collection run inside the block into *registry*.

    No-op on a disabled registry. The collector is process-wide, so two
    overlapping blocks each see every collection — give a process one.
    """
    if not registry.enabled:
        yield
        return
    collections = [
        registry.counter(f"runtime.gc.collections.gen{gen}") for gen in range(3)
    ]
    pause = registry.histogram("runtime.gc.pause_s")
    clock = time.perf_counter
    started = 0.0

    # Runs wherever an allocation trips a collection — possibly while
    # this thread already holds some other instrument's lock. It touches
    # only its own four instruments, made above, whose locked sections
    # allocate no container object, so it can neither re-enter one nor
    # start a collection of its own.
    def on_collection(phase: str, info: Dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = clock()
        else:
            pause.observe(clock() - started)
            collections[info["generation"]].inc()

    gc.callbacks.append(on_collection)
    try:
        yield
    finally:
        gc.callbacks.remove(on_collection)

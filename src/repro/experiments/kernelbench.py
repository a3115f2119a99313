"""Kernel microbenchmarks — raw DES event throughput, no workload.

The figure benches (:mod:`.bench`) measure *workload* events/sec: every
dispatch also runs protocol generators, metadata-tree walks and rate
reallocation, so their numbers track the whole stack. This module
isolates the kernel itself — the two-tier calendar queue, the pooled
process resumes and the bare-callable timer path of
:class:`~repro.sim.core.Environment` — by dispatching millions of
no-op entries. Four scenarios cover the queue's tiers:

* ``ring`` — a same-instant callback chain: every dispatch costs one
  deque popleft plus the callback (the near tier's fast path).
* ``timer`` — many concurrent self-rescheduling ``call_in`` timers with
  staggered periods, keeping a populated far-tier heap churning.
* ``process`` — generator processes looping over ``yield timeout(dt)``:
  the pooled ``_Resume`` path plus Timeout event dispatch.
* ``mixed`` — all three running concurrently in one environment; the
  headline kernel number.

The perf-smoke floors (``benchmarks/perf/``) call :func:`bench_kernel`
per scenario and gate it against ``baseline.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..sim.core import Environment, Event
from .bench import best_of

#: queue entries dispatched per scenario run (wall ~0.1-0.5 s each)
DEFAULT_EVENTS = 300_000

#: concurrent timer lanes in the ``timer`` scenario — deep enough that
#: every reschedule is a real heap sift, not a near-empty push/pop
TIMER_LANES = 512

#: concurrent generator processes in the ``process`` scenario
PROCESS_LANES = 256

SCENARIOS = ("ring", "timer", "process", "mixed")


@dataclass(slots=True)
class KernelBenchResult:
    """One scenario's best-of-repeats measurement."""

    scenario: str
    #: queue entries actually dispatched (``env.events_processed``)
    events: int
    wall_s: float
    events_per_s: float


def _arm_ring(env: Environment, n: int) -> Event:
    """A self-perpetuating zero-delay callback chain of *n* ticks."""
    done = Event(env)
    call_in = env.call_in
    remaining = n

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            call_in(0.0, tick)
        else:
            done.succeed(None)

    call_in(0.0, tick)
    return done


def _arm_timer(env: Environment, n: int, lanes: int = TIMER_LANES) -> Event:
    """*lanes* concurrent timers, each rescheduling itself ``call_in``
    with a lane-specific period, until *n* ticks fired in total."""
    done = Event(env)
    call_in = env.call_in
    remaining = n

    def make(period: float):
        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                call_in(period, tick)
            elif not done.triggered:
                done.succeed(None)

        return tick

    for i in range(lanes):
        # staggered phases and co-prime-ish periods keep the heap mixed
        call_in(1e-6 * (i + 1), make(1e-3 + i * 1.7e-6))
    return done


def _arm_process(env: Environment, n: int, lanes: int = PROCESS_LANES) -> Event:
    """*lanes* generator processes looping ``yield timeout(dt)`` until
    *n* timeouts were issued in total."""
    done = Event(env)
    remaining = n

    def proc(period: float):
        nonlocal remaining
        timeout = env.timeout
        while remaining > 0:
            remaining -= 1
            yield timeout(period)
        if not done.triggered:
            done.succeed(None)

    for i in range(lanes):
        env.process(proc(1e-4 + i * 1.3e-7))
    return done


def _run_scenario(scenario: str, n_events: int) -> KernelBenchResult:
    """One timed run: arm the scenario on a fresh env, drain to done."""
    env = Environment()
    if scenario == "ring":
        done = _arm_ring(env, n_events)
    elif scenario == "timer":
        done = _arm_timer(env, n_events)
    elif scenario == "process":
        done = _arm_process(env, n_events)
    elif scenario == "mixed":
        # weighted like the figure workloads: same-instant churn (flow
        # starts/finishes, RPC fan-outs) dominates, with timers and
        # process resumes making up the rest
        half = n_events // 2
        quarter = n_events // 4
        done = env.all_of(
            [
                _arm_ring(env, half),
                _arm_timer(env, quarter),
                _arm_process(env, n_events - half - quarter),
            ]
        )
    else:
        raise ValueError(f"unknown kernel scenario {scenario!r}")
    t0 = time.perf_counter()
    env.run(done)
    wall = time.perf_counter() - t0
    events = env.events_processed
    return KernelBenchResult(
        scenario=scenario,
        events=events,
        wall_s=wall,
        events_per_s=events / wall if wall > 0 else 0.0,
    )


def bench_kernel(
    scenario: str, n_events: int = DEFAULT_EVENTS, repeats: int = 3
) -> KernelBenchResult:
    """Best-of-*repeats* throughput of one scenario (fresh env each)."""
    if n_events < 1:
        raise ValueError("n_events must be positive")
    return best_of(lambda: _run_scenario(scenario, n_events), repeats)

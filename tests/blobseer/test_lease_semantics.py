"""One table of append-ticket lease rules, four drivers.

The lease protocol is written once, in ``VersionManagerCore``; the
runtime bindings only decide *when* ``expire`` runs. Each case below is
a script of ``(time, op, *args)`` steps with time in lease periods, run
against

* the bare core with explicit ``now`` values (no sleeps),
* ``ThreadedVersionManager`` on the wall clock (lazy expiry),
* ``SimVMService`` on a bare DES ``Environment`` (scheduled expiry), and
* the asyncio engine's loop-native wait on a real event loop (expiry by
  the timer of whoever is waiting),

so the four cannot drift apart. Ops: ``assign`` (the next version),
``commit v``, ``ready v`` (hand in the change map), ``abandon v`` (a
waiter gives up on its turn), ``expect {v: state}`` with state one of
``open`` / ``committed`` / ``aborted``. ``starts`` lists the lease
deadlines the core must have started by the end, exact to the bit on
the drivers whose clock the test controls.
"""

import asyncio
import threading
import time

import pytest

from repro.blobseer.sim_vm import SimVMService
from repro.blobseer.version_manager import (
    ThreadedVersionManager,
    VersionManagerCore,
)
from repro.common.config import BlobSeerConfig
from repro.common.errors import VersionNotReadyError
from repro.engine.aio import AsyncioEngine
from repro.obs import NULL_OBS
from repro.sim.core import Environment

CASES = {
    "commit_wins_over_the_lease": dict(
        steps=[
            (0, "assign"),
            (0.5, "commit", 1),
            (2.5, "expect", {1: "committed"}),
        ],
        starts=[1.0],
    ),
    "dead_appender_is_aborted_at_its_deadline": dict(
        steps=[
            (0, "assign"),
            (0.5, "expect", {1: "open"}),
            (1.5, "expect", {1: "aborted"}),
        ],
        starts=[1.0],
    ),
    # v2 is alive but spends longer than one whole lease queued behind a
    # dead v1: it must NOT expire, or one dead appender would cascade
    # aborts through everyone stalled behind it
    "clock_starts_at_the_queue_head_not_at_assignment": dict(
        steps=[
            (0, "assign"),
            (0, "assign"),
            (1.5, "commit", 2),
            (1.5, "expect", {1: "aborted", 2: "committed"}),
        ],
        starts=[1.0, 2.0],
    ),
    "chain_of_dead_appenders_unwinds_one_period_each": dict(
        steps=[
            (0, "assign"),
            (0, "assign"),
            (0, "assign"),
            (0.5, "expect", {1: "open", 2: "open", 3: "open"}),
            (1.5, "expect", {1: "aborted", 2: "open", 3: "open"}),
            (2.5, "expect", {1: "aborted", 2: "aborted", 3: "open"}),
            (3.5, "expect", {1: "aborted", 2: "aborted", 3: "aborted"}),
        ],
        starts=[1.0, 2.0, 3.0],
    ),
    # nobody looks at the version manager until long after: each clock
    # still starts at its predecessor's deadline, not at "now"
    "chain_evaluated_late_is_indistinguishable": dict(
        steps=[
            (0, "assign"),
            (0, "assign"),
            (0, "assign"),
            (3.5, "expect", {1: "aborted", 2: "aborted", 3: "aborted"}),
        ],
        starts=[1.0, 2.0, 3.0],
    ),
    "ready_version_at_the_head_is_exempt": dict(
        steps=[
            (0, "assign"),
            (0.5, "ready", 1),
            (2.5, "expect", {1: "open"}),
        ],
        starts=[1.0],
    ),
    # v2 hands in its change map while queued; when the dead v1 unwinds
    # v2 reaches the head but gets no clock: publication is the group
    # leader's job now
    "ready_version_reaching_the_head_is_exempt": dict(
        steps=[
            (0, "assign"),
            (0, "assign"),
            (0.5, "ready", 2),
            (3.5, "expect", {1: "aborted", 2: "open"}),
        ],
        starts=[1.0],
    ),
    "abandoned_before_its_turn_aborts_when_predecessor_resolves": dict(
        steps=[
            (0, "assign"),
            (0, "assign"),
            (0, "assign"),
            (0.2, "abandon", 2),
            (0.3, "expect", {1: "open", 2: "open", 3: "open"}),
            (0.5, "commit", 1),
            (0.5, "expect", {1: "committed", 2: "aborted", 3: "open"}),
            # v3 is not wedged: its turn is up and its own clock runs
            (0.7, "commit", 3),
            (0.7, "expect", {3: "committed"}),
        ],
        starts=[1.0, 1.5],
    ),
    "zero_lease_disables_expiry": dict(
        lease=0,
        steps=[
            (0, "assign"),
            (0, "assign"),
            (2.5, "expect", {1: "open", 2: "open"}),
        ],
        starts=[],
    ),
}


def _root(version):
    return (1, version, 0, 1)


class CoreDriver:
    """The bare state machine: time is whatever the script says."""

    exact = True

    def __init__(self, lease):
        self.starts = []
        self.core = VersionManagerCore(
            lease_s=lease, on_lease_start=self.starts.append
        )
        self.blob = self.core.create_blob(64)
        self.now = 0.0

    def at(self, t):
        self.now = t
        self.core.expire(t)

    def assign(self):
        self.core.assign_append(self.blob, 10, self.now)

    def commit(self, v):
        self.core.commit(self.blob, v, _root(v), self.now)

    def ready(self, v):
        self.core.commit_ready(self.blob, v, {})

    def abandon(self, v):
        self.core.abandon(self.blob, v, self.now)

    def close(self):
        pass


class _RecordingEnvironment(Environment):
    """Notes the fire time of every bare callback scheduled on it."""

    def __init__(self):
        super().__init__()
        self.scheduled = []

    def call_at(self, when, fn):
        self.scheduled.append(when)
        super().call_at(when, fn)


class SimDriver(CoreDriver):
    """``SimVMService`` on a bare environment: every clock the core
    starts is exactly one scheduled kernel callback."""

    def __init__(self, lease):
        self.env = _RecordingEnvironment()
        self.starts = self.env.scheduled
        self.svc = SimVMService(self.env, lease, NULL_OBS)
        self.core = self.svc.core
        self.blob = self.core.create_blob(64)

    @property
    def now(self):
        return self.env.now

    def at(self, t):
        self.env.run(until=t)

    def assign(self):
        self.svc.assign_append(self.blob, 10)

    def commit(self, v):
        self.svc.commit(self.blob, v, _root(v))

    def ready(self, v):
        self.svc.commit_ready(self.blob, v, {})


class ThreadedDriver:
    """``ThreadedVersionManager`` with a short real lease; expiry is
    lazy, so the driver's own calls are what evaluate it."""

    exact = False
    #: seconds per lease period
    UNIT = 0.1

    def __init__(self, lease):
        self.vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=lease * self.UNIT)
        )
        self.core = self.vm.core
        self.blob = self.vm.create_blob(64)
        self.t0 = time.monotonic()

    def at(self, t):
        delay = self.t0 + t * self.UNIT - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        self.vm.latest_published(self.blob)  # any call brings leases up to date

    def assign(self):
        self.vm.assign_append(self.blob, 10)

    def commit(self, v):
        self.vm.commit(self.blob, v, _root(v))

    def ready(self, v):
        self.vm.commit_ready(self.blob, v, {})

    def abandon(self, v):
        with pytest.raises(VersionNotReadyError):
            self.vm.wait_metadata_turn(self.blob, v, timeout=0.001)

    def close(self):
        pass


def _one_op(engine, kind, method, *args):
    """Coroutine: one ``engine.call``/``engine.wait`` op on the ``vm``
    endpoint, through the asyncio engine's trampoline."""

    def gen():
        return (yield getattr(engine, kind)("vm", method, *args))

    return engine.run(gen())


class AioDriver(ThreadedDriver):
    """The same binding behind the asyncio engine, on a real loop: every
    step is an engine op, and every appender assigned is a task parked
    in the engine's loop-native wait for its metadata turn (it dies the
    moment it gets it). Between steps only the loop runs, so the dead
    heads in a chain are aborted by the timers of the waiters parked
    behind them."""

    def __init__(self, lease):
        super().__init__(lease)
        self.engine = AsyncioEngine()
        self.engine.bind("vm", self.vm)
        self.loop = asyncio.new_event_loop()
        self.parked = {}

    def _call(self, method, *args):
        return self.loop.run_until_complete(
            _one_op(self.engine, "call", method, *args)
        )

    def at(self, t):
        delay = max(0.0, self.t0 + t * self.UNIT - time.monotonic())
        self.loop.run_until_complete(asyncio.sleep(delay))
        self._call("latest_published", self.blob)

    def assign(self):
        version = self._call("assign_append", self.blob, 10).version
        self.parked[version] = self.loop.create_task(
            _one_op(self.engine, "wait", "metadata_turn", self.blob, version)
        )

    def commit(self, v):
        self._call("commit", self.blob, v, _root(v))

    def ready(self, v):
        self._call("commit_ready", self.blob, v, {})

    def abandon(self, v):
        self.parked.pop(v).cancel()  # one waiter per version
        with pytest.raises(VersionNotReadyError):
            self.loop.run_until_complete(
                _one_op(self.engine, "wait", "metadata_turn", self.blob, v, 0.001)
            )

    def close(self):
        for task in self.parked.values():
            task.cancel()
        self.loop.run_until_complete(
            asyncio.gather(*self.parked.values(), return_exceptions=True)
        )
        assert _live_timers(self.loop) == []
        self.loop.close()


def _live_timers(loop):
    """Timer handles still scheduled on *loop* (a private list: there is
    no public way to ask a loop what it has been told to do later)."""
    return [h for h in loop._scheduled if not h.cancelled()]


def _state(record):
    if record.aborted:
        return "aborted"
    return "committed" if record.committed else "open"


@pytest.mark.parametrize(
    "driver_cls", [CoreDriver, ThreadedDriver, SimDriver, AioDriver]
)
@pytest.mark.parametrize("case", CASES)
def test_lease_rule(case, driver_cls):
    spec = CASES[case]
    driver = driver_cls(spec.get("lease", 1))
    for t, op, *args in spec["steps"]:
        driver.at(t)
        if op == "expect":
            versions = driver.core.blob(driver.blob).versions
            got = {v: _state(versions[v]) for v in args[0]}
            assert got == args[0], f"at t={t}"
        else:
            getattr(driver, op)(*args)
    if driver.exact:
        assert list(driver.starts) == spec["starts"]
    driver.close()


# -- the loop-native wait itself ----------------------------------------------


class TestLoopNativeWait:
    """What ``AsyncioEngine.wait`` adds to the shared rules: it parks on
    the loop, not on a thread, and leaves nothing behind."""

    def setup_method(self):
        self.engine = AsyncioEngine()

    def bind(self, **config):
        vm = ThreadedVersionManager(config=BlobSeerConfig(**config))
        self.engine.bind("vm", vm)
        return vm, vm.create_blob(64)

    def turn(self, blob, version, *timeout):
        return _one_op(
            self.engine, "wait", "metadata_turn", blob, version, *timeout
        )

    def test_decided_wait_never_suspends_and_needs_no_loop(self):
        vm, blob = self.bind()
        vm.assign_append(blob, 10)
        coro = self.turn(blob, 1)
        # driven by hand, outside any loop: it finishes in one step
        with pytest.raises(StopIteration) as done:
            coro.send(None)
        assert done.value.value == (None, 0)

    def test_blocked_waiter_expires_the_dead_head_itself(self):
        vm, blob = self.bind(append_lease_s=0.05)
        vm.assign_append(blob, 10)  # v1 dies
        vm.assign_append(blob, 10)

        async def main():
            t0 = time.monotonic()
            assert await self.turn(blob, 2) == (None, 0)
            assert 0.04 <= time.monotonic() - t0 < 2.0
            return _live_timers(asyncio.get_running_loop())

        assert asyncio.run(main()) == []
        assert vm.resolve(blob, 1)[0].aborted

    def test_timeout_abandons_the_version_and_unwedges_its_successor(self):
        vm, blob = self.bind(append_lease_s=0)  # isolate the timeout path
        for _ in range(3):
            vm.assign_append(blob, 10)

        async def main():
            with pytest.raises(VersionNotReadyError):
                await self.turn(blob, 2, 0.05)
            vm.commit(blob, 1, _root(1))
            # v2 aborted itself when v1 resolved; v3's turn is up
            assert (await self.turn(blob, 3))[0] == _root(1)
            return _live_timers(asyncio.get_running_loop())

        assert asyncio.run(main()) == []
        assert vm.resolve(blob, 2)[0].aborted

    def test_commit_from_a_foreign_thread_resolves_a_pending_wait(self):
        vm, blob = self.bind()
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)

        async def main():
            waiter = asyncio.ensure_future(self.turn(blob, 2))
            await asyncio.sleep(0.02)
            assert not waiter.done() and vm.core.commit_queue_length == 1
            committer = threading.Thread(
                target=vm.commit, args=(blob, 1, _root(1))
            )
            committer.start()
            prereq = await asyncio.wait_for(waiter, 5)
            committer.join(5)
            assert not committer.is_alive()
            return prereq, _live_timers(asyncio.get_running_loop())

        prereq, timers = asyncio.run(main())
        assert prereq[0] == _root(1)
        assert timers == []

    def test_commit_on_the_loop_resolves_a_pending_wait(self):
        vm, blob = self.bind()
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)

        async def main():
            waiter = asyncio.ensure_future(self.turn(blob, 2))
            await asyncio.sleep(0)
            assert not waiter.done()
            vm.commit(blob, 1, _root(1))
            return await asyncio.wait_for(waiter, 5)

        assert asyncio.run(main())[0] == _root(1)

    def test_cancelled_wait_leaves_no_timer_and_tolerates_a_late_grant(self):
        vm, blob = self.bind()
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)

        async def main():
            waiter = asyncio.ensure_future(self.turn(blob, 2))
            await asyncio.sleep(0)
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            vm.commit(blob, 1, _root(1))  # grants a turn nobody waits for
            return _live_timers(asyncio.get_running_loop())

        assert asyncio.run(main()) == []

    def test_endpoint_value_that_is_awaitable_is_returned_not_awaited(self):
        class Endpoint:
            def peek(self):
                return asyncio.sleep(3600)

        self.engine.bind("x", Endpoint())

        def gen():
            return (yield self.engine.call("x", "peek"))

        value = asyncio.run(self.engine.run(gen()))
        assert asyncio.iscoroutine(value)
        value.close()

"""One table of append-ticket lease rules, three drivers.

The lease protocol is written once, in ``VersionManagerCore``; the
runtime bindings only decide *when* ``expire`` runs. Each case below is
a script of ``(time, op, *args)`` steps with time in lease periods, run
against

* the bare core with explicit ``now`` values (no sleeps),
* ``ThreadedVersionManager`` on the wall clock (lazy expiry), and
* ``SimVMService`` on a bare DES ``Environment`` (scheduled expiry),

so the three cannot drift apart. Ops: ``assign`` (the next version),
``commit v``, ``ready v`` (hand in the change map), ``abandon v`` (a
waiter gives up on its turn), ``expect {v: state}`` with state one of
``open`` / ``committed`` / ``aborted``. ``starts`` lists the lease
deadlines the core must have started by the end, exact to the bit on
the drivers whose clock the test controls.
"""

import time

import pytest

from repro.blobseer.metadata.segment_tree import NodeKey
from repro.blobseer.sim_vm import SimVMService
from repro.blobseer.version_manager import (
    ThreadedVersionManager,
    VersionManagerCore,
)
from repro.common.config import BlobSeerConfig
from repro.common.errors import VersionNotReadyError
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
    return NodeKey(1, version, 0, 1)


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


def _state(record):
    if record.aborted:
        return "aborted"
    return "committed" if record.committed else "open"


@pytest.mark.parametrize("driver_cls", [CoreDriver, ThreadedDriver, SimDriver])
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

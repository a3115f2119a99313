"""Unit tests for the version manager (core state machine + threaded wrapper)."""

import threading
import time

import pytest

from repro.blobseer.metadata.segment_tree import node_key
from repro.blobseer.version_manager import (
    ThreadedVersionManager,
    VersionManagerCore,
)
from repro.common.config import BlobSeerConfig
from repro.common.errors import (
    AppendAbortedError,
    BlobNotFoundError,
    VersionNotFoundError,
    VersionNotReadyError,
)
from repro.obs import Observability


def root_key(v):
    return node_key(1, v, 0, 1)


class TestCore:
    def test_create_blob_publishes_empty_v0(self):
        core = VersionManagerCore()
        blob = core.create_blob(page_size=64)
        rec = core.latest_published(blob)
        assert (rec.version, rec.size) == (0, 0)

    def test_unknown_blob(self):
        core = VersionManagerCore()
        with pytest.raises(BlobNotFoundError):
            core.blob(99)

    def test_append_offsets_chain(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        t1 = core.assign_append(blob, 100)
        t2 = core.assign_append(blob, 50)
        assert (t1.version, t1.offset, t1.new_size) == (1, 0, 100)
        assert (t2.version, t2.offset, t2.new_size) == (2, 100, 150)

    def test_write_requires_alignment_and_no_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 64)
        with pytest.raises(ValueError):
            core.assign_write(blob, 10, 5)  # unaligned
        with pytest.raises(ValueError):
            core.assign_write(blob, 128, 5)  # hole
        t = core.assign_write(blob, 0, 30)
        assert t.new_size == 64  # overwrite does not shrink

    def test_zero_sized_updates_rejected(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        with pytest.raises(ValueError):
            core.assign_append(blob, 0)
        with pytest.raises(ValueError):
            core.assign_write(blob, 0, 0)

    def test_in_order_publication(self):
        """Version 2 committing before version 1 stays invisible until 1
        commits."""
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        core.commit(blob, 2, root_key(2))
        assert core.latest_published(blob).version == 0
        core.commit(blob, 1, root_key(1))
        assert core.latest_published(blob).version == 2

    def test_metadata_prereq_gating(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        assert core.metadata_prereq(blob, 1) == (None, 0)
        assert core.metadata_prereq(blob, 2) is None
        core.commit(blob, 1, root_key(1))
        prev_root, prev_cap = core.metadata_prereq(blob, 2)
        assert prev_root == root_key(1) and prev_cap == 1

    def test_when_turn_callback_order(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        fired = []
        core.when_turn(blob, 2, lambda prereq: fired.append(2))
        core.when_turn(blob, 1, lambda prereq: fired.append(1))  # immediate
        assert fired == [1]
        core.commit(blob, 1, root_key(1))
        assert fired == [1, 2]

    def test_double_commit_rejected(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        with pytest.raises(ValueError):
            core.commit(blob, 1, root_key(1))

    def test_get_version_gates_unpublished(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            core.resolve(blob, 1)[0]
        with pytest.raises(VersionNotFoundError):
            core.resolve(blob, 7)[0]
        core.commit(blob, 1, root_key(1))
        assert core.resolve(blob, 1)[0].size == 10

    def test_old_versions_stay_readable(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        for v in range(1, 5):
            core.assign_append(blob, 10)
            core.commit(blob, v, root_key(v))
        assert core.resolve(blob, 2)[0].size == 20
        assert core.latest_published(blob).size == 40


class TestThreadedWrapper:
    def test_concurrent_assignments_are_disjoint(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        tickets = []
        lock = threading.Lock()

        def worker():
            t = vm.assign_append(blob, 10)
            with lock:
                tickets.append(t)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        versions = sorted(t.version for t in tickets)
        offsets = sorted(t.offset for t in tickets)
        assert versions == list(range(1, 33))
        assert offsets == [10 * i for i in range(32)]

    def test_wait_metadata_turn_blocks_until_commit(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        result = {}

        def second_writer():
            result["prereq"] = vm.wait_metadata_turn(blob, 2, timeout=5)

        t = threading.Thread(target=second_writer)
        t.start()
        vm.commit(blob, 1, root_key(1))
        t.join(timeout=5)
        assert result["prereq"][0] == root_key(1)

    def test_wait_turn_times_out(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2, timeout=0.05)


class TestCoreAbort:
    def _two_assigned(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        return core, blob

    def test_abort_publishes_hole_and_advances_frontier(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)  # v1 commits
        core.assign_append(blob, 10)  # v2 dies
        core.assign_append(blob, 10)  # v3 commits
        core.commit(blob, 1, root_key(1))
        assert core.abort(blob, 2) is True
        rec = core.resolve(blob, 2)[0]
        assert rec.aborted and rec.root == root_key(1)
        # v3 builds on the aborted version's *inherited* tree
        assert core.metadata_prereq(blob, 3) == (root_key(1), 1)
        core.commit(blob, 3, root_key(3))
        assert core.latest_published(blob).version == 3

    def test_abort_of_last_assigned_reclaims_the_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        core.assign_append(blob, 30)
        core.abort(blob, 2)
        assert core.resolve(blob, 2)[0].size == 10
        # the next append lands where v1 ended, not after the hole
        assert core.assign_append(blob, 5).offset == 10

    def test_abort_mid_chain_leaves_a_permanent_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        core.assign_append(blob, 30)  # v2 dies
        core.assign_append(blob, 10)  # v3 already assigned after it
        core.abort(blob, 2)
        assert core.resolve(blob, 2)[0].size == 40  # no reclaim
        assert core.assign_append(blob, 5).offset == 50

    def test_commit_after_abort_raises(self):
        core, blob = self._two_assigned()
        core.commit(blob, 1, root_key(1))
        core.abort(blob, 2)
        with pytest.raises(AppendAbortedError):
            core.commit(blob, 2, root_key(2))

    def test_abort_of_committed_version_is_a_lost_race(self):
        core, blob = self._two_assigned()
        core.commit(blob, 1, root_key(1))
        assert core.abort(blob, 1) is False
        assert not core.resolve(blob, 1)[0].aborted

    def test_abort_requires_resolved_predecessor(self):
        core, blob = self._two_assigned()
        with pytest.raises(VersionNotReadyError):
            core.abort(blob, 2)

    def test_cascading_aborts_unwind_in_order(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        for _ in range(3):
            core.assign_append(blob, 10)
        # v2's abort must wait for v1: abandon defers it until then
        core.abandon(blob, 2)
        assert not core.blob(blob).versions[2].committed
        core.abort(blob, 1)
        assert core.latest_published(blob).version == 2
        assert core.metadata_prereq(blob, 3) == (None, 0)


class TestAppendLeases:
    """Threaded-binding specifics; the lease rules themselves run as one
    table against all three bindings in ``test_lease_semantics.py``."""

    def test_blocked_waiter_expires_the_dead_head_itself(self):
        # nobody else touches the VM: the waiter's own condition wait is
        # bounded by the earliest deadline, so it aborts the dead v1 and
        # takes its turn without any timer thread
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0.05)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # v1 dies
        vm.assign_append(blob, 10)
        t0 = time.monotonic()
        assert vm.wait_metadata_turn(blob, 2, timeout=5) == (None, 0)
        assert 0.04 <= time.monotonic() - t0 < 2.0
        assert vm.resolve(blob, 1)[0].aborted

    def test_wait_turn_timeout_routes_through_abort(self):
        # satellite (c): the timed-out waiter aborts its own version so
        # later versions are never wedged behind it
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0)  # isolate the timeout path
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # v1: slow
        vm.assign_append(blob, 10)  # v2: times out waiting for v1
        vm.assign_append(blob, 10)  # v3: must not be wedged behind v2
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2, timeout=0.05)
        vm.commit(blob, 1, root_key(1))
        # v2 aborted itself when v1 resolved; v3's turn is immediately up
        assert vm.resolve(blob, 2)[0].aborted
        assert vm.wait_metadata_turn(blob, 3, timeout=1)[0] == root_key(1)

    def test_turn_timeout_survives_wakeups_for_other_blobs(self):
        # one condition variable serves every blob: commits on blob B
        # wake A's waiter every 10 ms, which must not restart its 50 ms
        # timeout (leases off, so only the timeout can end the wait)
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0))
        a, b = vm.create_blob(64), vm.create_blob(64)
        vm.assign_append(a, 10)  # v1: stalled
        vm.assign_append(a, 10)
        stop = threading.Event()

        def busy_neighbour():
            while not stop.wait(0.01):
                t = vm.assign_append(b, 10)
                vm.commit(b, t.version, root_key(t.version))

        neighbour = threading.Thread(target=busy_neighbour)
        neighbour.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(VersionNotReadyError):
                vm.wait_metadata_turn(a, 2, timeout=0.05)
            assert time.monotonic() - t0 < 1.0
        finally:
            stop.set()
            neighbour.join(timeout=5)
        assert not neighbour.is_alive()

    @pytest.mark.parametrize("lease_s", [0, 30.0])
    def test_queue_length_counts_versions_not_callbacks(self, lease_s):
        obs = Observability.on()
        vm = ThreadedVersionManager(
            obs, config=BlobSeerConfig(append_lease_s=lease_s)
        )
        blob = vm.create_blob(64)
        for _ in range(4):
            vm.assign_append(blob, 10)  # v1 stalls; v2..v4 wait behind it
        waiters = [
            threading.Thread(target=vm.wait_metadata_turn, args=(blob, v, 5))
            for v in (2, 3, 4)
        ]
        for w in waiters:
            w.start()
        deadline = time.monotonic() + 5
        while vm.core.commit_queue_length < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert vm.core.commit_queue_length == 3
        assert obs.registry.gauge("vm.turn_queue_depth").value == 3
        for v in (1, 2, 3):
            vm.commit(blob, v, root_key(v))
        for w in waiters:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in waiters)
        assert vm.core.commit_queue_length == 0
        assert obs.registry.gauge("vm.turn_queue_depth").value == 0

    def test_turn_timeout_default_comes_from_config(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(
                append_lease_s=0, metadata_turn_timeout_s=0.05
            )
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2)  # no explicit timeout


class TestClose:
    """Lifecycle: leases are table entries, never threads, and
    ``close()`` stops every running clock."""

    def test_appends_start_no_threads(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        before = threading.active_count()
        for v in range(1, 1001):
            vm.assign_append(blob, 10)
            vm.commit(blob, v, root_key(v))
        assert threading.active_count() == before
        assert vm.live_lease_timers == 0

    def test_close_cancels_outstanding_lease_timers(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        for _ in range(5):
            vm.assign_append(blob, 10)  # head clock running, rest queued
        assert vm.live_lease_timers >= 1
        vm.close()
        assert vm.live_lease_timers == 0

    def test_close_is_idempotent(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.close()
        vm.close()
        assert vm.live_lease_timers == 0

    def test_no_timer_armed_after_close(self):
        # assignments racing with shutdown must not start new clocks
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        vm.close()
        vm.assign_append(blob, 10)
        assert vm.live_lease_timers == 0

    def test_close_under_concurrent_assignments(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                vm.assign_append(blob, 1)

        workers = [threading.Thread(target=churn) for _ in range(4)]
        for w in workers:
            w.start()
        time.sleep(0.05)
        vm.close()
        stop.set()
        for w in workers:
            w.join()
        assert vm.live_lease_timers == 0

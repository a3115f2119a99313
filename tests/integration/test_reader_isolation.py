"""Readers are never disturbed: the paper's claim, checked on the locks.

Versions are immutable snapshots and metadata nodes are written once,
so a reader of published bytes has nothing to wait for. On the threaded
runtime that means the read path takes no lock an appender takes. The
check holds every one of those locks on a helper thread — the version
manager's turn, both namespace locks, and each provider's and page
store's writer lock — and requires ``refresh_size`` and ``pread`` of
published bytes to finish anyway, with the right data, on both page
stores. A poisoned copy (the store lock put back around the log store's
``get``) must fail the same check.
"""

import threading
import time
from contextlib import ExitStack, contextmanager

import pytest

from repro.blobseer.backends.logstore import LogStructuredPageStore
from repro.blobseer.version_manager import ThreadedVersionManager
from repro.bsfs import BSFS
from repro.common.config import BlobSeerConfig

PAGE = 1024
RECORD = 700  # straddles pages, so reads span fragments of two appends
RECORDS = 12
#: how long a reader may take with every writer lock held
BUDGET_S = 2.0


def record(i: int) -> bytes:
    return bytes([65 + i % 26]) * RECORD


def deployment(store: str, tmp_path) -> BSFS:
    extra = (
        {"page_store_backend": "log", "page_store_dir": str(tmp_path / "pages")}
        if store == "log"
        else {}
    )
    dep = BSFS(
        config=BlobSeerConfig(
            page_size=PAGE, replication=2, metadata_providers=3, **extra
        ),
        n_providers=3,
    )
    fs = dep.file_system("appender")
    fs.create("/f").close()
    for i in range(RECORDS):
        with fs.append("/f") as out:
            out.write(record(i))
    return dep


def writer_locks(dep: BSFS) -> list:
    """Every lock an appender takes on its way through the stack."""
    locks = [
        dep.service.version_manager._turn,
        dep.namespace._lock,
        dep.namespace.tree._lock,
    ]
    for provider in dep.service.providers.values():
        locks += [provider._lock, provider.store._lock]
    return locks


@contextmanager
def all_writer_locks_held(dep: BSFS):
    """Hold :func:`writer_locks` on a helper thread for the block."""
    held, release = threading.Event(), threading.Event()

    def holder():
        with ExitStack() as stack:
            for lock in writer_locks(dep):
                stack.enter_context(lock)
            held.set()
            release.wait()

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    assert held.wait(5), "could not take the writer locks"
    try:
        yield
    finally:
        release.set()
        thread.join(5)


def read_while_locked(dep: BSFS):
    """``(finished, size, data)`` of one ``refresh_size`` + ``pread``
    run while every writer lock is held; *finished* is False when the
    reader was still blocked after :data:`BUDGET_S`."""
    reader = dep.file_system("reader").open("/f")
    out = {}

    def read():
        out["size"] = reader.refresh_size()
        out["data"] = reader.pread(PAGE - 100, 3 * RECORD)

    with all_writer_locks_held(dep):
        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        thread.join(BUDGET_S)
        finished = not thread.is_alive()
    thread.join(5)
    return finished, out.get("size"), out.get("data")


@pytest.mark.parametrize("store", ["memory", "log"])
def test_reader_takes_no_writer_lock(store, tmp_path):
    dep = deployment(store, tmp_path)
    finished, size, data = read_while_locked(dep)
    assert finished, "a reader of published bytes waited on a writer lock"
    everything = b"".join(record(i) for i in range(RECORDS))
    assert size == len(everything)
    assert data == everything[PAGE - 100 : PAGE - 100 + 3 * RECORD]


def test_poisoned_log_store_get_fails_the_check(tmp_path, monkeypatch):
    """Self-test: with the store lock back around ``get`` the reader
    must block behind the held writer lock, and the check must say so."""
    get = LogStructuredPageStore.get

    def locked_get(self, key):
        with self._lock:
            return get(self, key)

    dep = deployment("log", tmp_path)
    monkeypatch.setattr(LogStructuredPageStore, "get", locked_get)
    finished, _, _ = read_while_locked(dep)
    assert not finished


def test_resolve_past_a_dead_appenders_deadline_aborts_it():
    """Lock-free reads do not skip lease expiry: once the earliest lease
    deadline has passed, ``resolve`` locks and aborts the dead appender,
    so the frontier moves past its version."""
    vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0.05))
    blob = vm.create_blob(PAGE)
    ticket = vm.assign_append(blob, 100)  # the appender then dies
    record_, _ = vm.resolve(blob)
    assert record_.version == 0  # before the deadline: nothing expires
    assert vm.core.earliest_deadline < float("inf")
    time.sleep(0.08)
    record_, _ = vm.resolve(blob)
    assert record_.version == ticket.version and record_.aborted
    assert vm.live_lease_timers == 0
    assert vm.core.earliest_deadline == float("inf")

"""Op spans stay on their own thread.

Every client thread of a threaded deployment drives its operations
through the one engine the service shares. Each op takes its span's
parent as an argument, so an op span opened on one thread must parent
under a span that thread opened, never under another thread's
operation, and never under none.
"""

import sys
import threading

from repro.blobseer.client import BlobSeerService
from repro.common.config import BlobSeerConfig
from repro.engine.base import Payload
from repro.obs import NULL_SPAN, Observability

THREADS = 4
APPENDS = 150


def test_op_spans_parent_under_a_span_of_their_own_thread(monkeypatch):
    obs = Observability.on()
    opened_on = {}
    start = obs.tracer.start

    def recording_start(*args, **kwargs):
        span = start(*args, **kwargs)
        if span is not NULL_SPAN:
            opened_on[span.span_id] = threading.get_ident()
        return span

    monkeypatch.setattr(obs.tracer, "start", recording_start)
    svc = BlobSeerService(
        config=BlobSeerConfig(page_size=4096, metadata_providers=2),
        n_providers=4,
        obs=obs,
    )
    blob = svc.create_blob()
    barrier = threading.Barrier(THREADS)
    errors = []

    def appender(i):
        barrier.wait(timeout=30)
        try:
            for _ in range(APPENDS):
                svc.engine.run(
                    svc.protocol.update(f"client-{i}", blob, Payload(b"x" * 100))
                )
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=appender, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        svc.close()
    assert not any(t.is_alive() for t in threads)
    assert not errors

    ops = [s for s in obs.tracer.snapshot() if s.cat.startswith("engine.")]
    assert ops
    parentless = [s.name for s in ops if s.parent_id is None]
    assert not parentless, f"{len(parentless)} op spans have no parent"
    crossed = [
        s.name for s in ops if opened_on[s.parent_id] != opened_on[s.span_id]
    ]
    assert not crossed, f"{len(crossed)} op spans parent on another thread"

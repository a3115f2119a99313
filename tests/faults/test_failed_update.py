"""A failed update gives its ticket back at once.

An update takes its ticket from the version manager before it places
and ships pages. When that later work raises, the update abandons its
version on the way out: the version becomes a hole at once, and the
next update to the blob does not wait out the append-ticket lease.

Setup on both live paths: 2 providers, ``replication=2``, a 3 s lease,
one provider failed. Placement then needs 2 distinct providers with
only 1 alive, so the append raises ``ReplicationError`` after its
ticket was taken. Once the provider is back, the next append must finish
well inside the lease.
"""

import http.client
import json
import time

import pytest

from repro.blobseer.client import BlobSeerService
from repro.common.config import BlobSeerConfig
from repro.common.errors import ReplicationError
from repro.engine.base import Payload
from repro.server import BlobServer, ServerThread

LEASE_S = 3.0
#: the next append's budget: a small fraction of the lease
QUICK_S = 0.5
PROVIDER = "provider-001"


def _config():
    return BlobSeerConfig(replication=2, append_lease_s=LEASE_S)


def test_library_append_after_a_failed_one_does_not_wait_out_the_lease():
    service = BlobSeerService(config=_config(), n_providers=2)
    run, protocol = service.engine.run, service.protocol
    blob = service.create_blob()
    service.fail_provider(PROVIDER)
    with pytest.raises(ReplicationError):
        run(protocol.update("appender", blob, Payload(b"lost")))
    service.recover_provider(PROVIDER)

    t0 = time.monotonic()
    version, offset, _group_end = run(
        protocol.update("appender", blob, Payload(b"kept"))
    )
    elapsed = time.monotonic() - t0

    assert elapsed < QUICK_S, f"next append took {elapsed:.2f} s"
    vm = service.version_manager
    assert vm.resolve(blob, 1)[0].aborted
    # the failed version was the newest: its range is reclaimed
    assert (version, offset) == (2, 0)
    assert run(protocol.read("appender", blob, 0, 4)) == (2, b"kept")
    assert vm.core.commit_queue_length == 0
    service.close()


def _post(server, target, body=b""):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", target, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_http_append_after_a_failed_one_does_not_wait_out_the_lease():
    server = BlobServer(config=_config().fast(group_commit=False), n_providers=2)
    with ServerThread(server):
        status, doc = _post(server, "/blob")
        assert status == 201
        blob = doc["blob_id"]
        server.service.fail_provider(PROVIDER)
        status, doc = _post(server, f"/blob/{blob}/append", b"lost")
        assert status == 503, doc
        server.service.recover_provider(PROVIDER)

        t0 = time.monotonic()
        status, doc = _post(server, f"/blob/{blob}/append", b"kept")
        elapsed = time.monotonic() - t0

        assert elapsed < QUICK_S, f"next append took {elapsed:.2f} s"
        assert status == 200
        assert (doc["version"], doc["offset"]) == (2, 0)
        assert server.service.version_manager.core.commit_queue_length == 0

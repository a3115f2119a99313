"""End-to-end tests of the HTTP front-end over real sockets.

One module-scoped server (booting a deployment per test would dominate
runtime); each test uses its own blobs/paths. Shutdown behavior gets a
dedicated fresh server. Clients are stdlib ``http.client`` — the server
side is what's under test.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.obs import Observability
from repro.server import BlobServer, ServerThread


@pytest.fixture(scope="module")
def server():
    obs = Observability.on()
    st = ServerThread(BlobServer(port=0, n_providers=4, obs=obs))
    st.start()
    yield st.server
    st.stop()
    assert st.server.live_lease_timers == 0


@pytest.fixture()
def conn(server):
    c = http.client.HTTPConnection(server.host, server.port)
    yield c
    c.close()


def rq(conn, method, path, body=None):
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    raw = resp.read()
    doc = None
    if resp.getheader("Content-Type") == "application/json":
        doc = json.loads(raw)
    return resp.status, raw, doc, resp


class TestBlobPlane:
    def test_create_append_read_roundtrip(self, conn):
        status, _, doc, _ = rq(conn, "POST", "/blob")
        assert status == 201
        blob = doc["blob_id"]
        status, _, doc, _ = rq(conn, "POST", f"/blob/{blob}/append", b"hello ")
        assert status == 200 and doc["version"] == 1 and doc["offset"] == 0
        status, _, doc, _ = rq(conn, "POST", f"/blob/{blob}/append", b"world")
        assert doc["version"] == 2 and doc["offset"] == 6
        status, raw, _, resp = rq(conn, "GET", f"/blob/{blob}")
        assert status == 200 and raw == b"hello world"
        assert resp.getheader("X-Blob-Version") == "2"
        assert resp.getheader("X-Blob-Size") == "11"

    def test_versioned_and_ranged_reads(self, conn):
        _, _, doc, _ = rq(conn, "POST", "/blob")
        blob = doc["blob_id"]
        rq(conn, "POST", f"/blob/{blob}/append", b"aaaa")
        rq(conn, "POST", f"/blob/{blob}/append", b"bbbb")
        status, raw, _, _ = rq(conn, "GET", f"/blob/{blob}?version=1")
        assert raw == b"aaaa"
        status, raw, _, _ = rq(
            conn, "GET", f"/blob/{blob}?offset=2&length=4"
        )
        assert raw == b"aabb"

    def test_write_at_offset(self, conn):
        _, _, doc, _ = rq(conn, "POST", "/blob?page_size=4")
        blob = doc["blob_id"]
        rq(conn, "POST", f"/blob/{blob}/append", b"12345678")
        status, _, doc, _ = rq(conn, "PUT", f"/blob/{blob}?offset=4", b"wxyz")
        assert status == 200 and doc["version"] == 2
        _, raw, _, _ = rq(conn, "GET", f"/blob/{blob}")
        assert raw == b"1234wxyz"

    def test_stat(self, conn):
        _, _, doc, _ = rq(conn, "POST", "/blob")
        blob = doc["blob_id"]
        rq(conn, "POST", f"/blob/{blob}/append", b"xyz")
        status, _, doc, _ = rq(conn, "GET", f"/blob/{blob}/stat")
        assert status == 200
        assert doc["size"] == 3 and doc["version"] == 1

    def test_error_mapping(self, conn):
        assert rq(conn, "GET", "/blob/99999")[0] == 404
        assert rq(conn, "GET", "/blob/abc")[0] == 400
        assert rq(conn, "POST", "/blob/1/append", b"")[0] == 400
        assert rq(conn, "GET", "/nope")[0] == 404
        assert rq(conn, "PATCH", "/blob")[0] == 405
        _, _, doc, _ = rq(conn, "POST", "/blob")
        blob = doc["blob_id"]
        rq(conn, "POST", f"/blob/{blob}/append", b"x")
        assert rq(conn, "GET", f"/blob/{blob}?version=99")[0] == 404
        assert (
            rq(conn, "GET", f"/blob/{blob}?offset=100&length=5")[0] == 416
        )


class TestFilePlane:
    def test_create_append_read_namespace_flow(self, conn):
        status, _, doc, _ = rq(conn, "POST", "/fs/mkdirs/job/out")
        assert status == 201
        status, _, doc, _ = rq(conn, "POST", "/fs/files/job/out/p0", b"abc")
        assert status == 201
        status, _, doc, _ = rq(conn, "POST", "/fs/append/job/out/p0", b"defg")
        assert status == 200 and doc["nbytes"] == 4
        status, raw, _, resp = rq(conn, "GET", "/fs/files/job/out/p0")
        assert raw == b"abcdefg"
        assert resp.getheader("X-File-Size") == "7"
        status, raw, _, _ = rq(
            conn, "GET", "/fs/files/job/out/p0?offset=2&length=3"
        )
        assert raw == b"cde"
        status, _, doc, _ = rq(conn, "GET", "/fs/stat/job/out/p0")
        assert doc["size"] == 7 and not doc["is_directory"]
        status, _, doc, _ = rq(conn, "GET", "/fs/list/job/out")
        assert [e["path"] for e in doc["entries"]] == ["/job/out/p0"]
        status, _, _, _ = rq(
            conn, "POST", "/fs/rename?src=/job/out/p0&dst=/job/out/p1"
        )
        assert status == 200
        assert rq(conn, "GET", "/fs/stat/job/out/p1")[0] == 200
        assert rq(conn, "DELETE", "/fs/files/job/out/p1")[0] == 200
        assert rq(conn, "GET", "/fs/stat/job/out/p1")[0] == 404

    def test_renamed_away_path_is_gone_for_appends_and_reads(self, conn):
        """The served profile caches path -> record; a rename must not
        leave the old path writing into the BLOB the new path now owns."""
        rq(conn, "POST", "/fs/files/mv/a", b"abc")
        assert rq(conn, "POST", "/fs/append/mv/a", b"d")[0] == 200  # cached
        assert rq(conn, "POST", "/fs/rename?src=/mv/a&dst=/mv/b")[0] == 200
        assert rq(conn, "POST", "/fs/append/mv/a", b"STRAY")[0] == 404
        assert rq(conn, "GET", "/fs/files/mv/a")[0] == 404
        assert rq(conn, "POST", "/fs/append/mv/b", b"e")[0] == 200
        assert rq(conn, "GET", "/fs/files/mv/b")[1] == b"abcde"

    def test_path_reused_after_delete_serves_the_new_blob(self, conn):
        rq(conn, "POST", "/fs/files/reuse/a", b"old-bytes")
        rq(conn, "POST", "/fs/files/reuse/c", b"new")
        assert rq(conn, "GET", "/fs/files/reuse/a")[1] == b"old-bytes"  # cached
        assert rq(conn, "DELETE", "/fs/files/reuse/a")[0] == 200
        assert rq(conn, "POST", "/fs/append/reuse/a", b"x")[0] == 404
        assert rq(conn, "POST", "/fs/rename?src=/reuse/c&dst=/reuse/a")[0] == 200
        assert rq(conn, "POST", "/fs/append/reuse/a", b"er")[0] == 200
        assert rq(conn, "GET", "/fs/files/reuse/a")[1] == b"newer"

    def test_directory_rename_and_recursive_delete_unbind_the_files_below(
        self, conn
    ):
        rq(conn, "POST", "/fs/files/tree/d/f", b"abc")
        assert rq(conn, "POST", "/fs/append/tree/d/f", b"d")[0] == 200  # cached
        assert rq(conn, "POST", "/fs/rename?src=/tree/d&dst=/tree/e")[0] == 200
        assert rq(conn, "POST", "/fs/append/tree/d/f", b"STRAY")[0] == 404
        assert rq(conn, "POST", "/fs/append/tree/e/f", b"e")[0] == 200  # cached
        assert rq(conn, "GET", "/fs/files/tree/e/f")[1] == b"abcde"
        assert rq(conn, "DELETE", "/fs/files/tree/e?recursive=1")[0] == 200
        assert rq(conn, "POST", "/fs/append/tree/e/f", b"STRAY")[0] == 404

    def test_fs_errors(self, conn):
        assert rq(conn, "GET", "/fs/stat/missing")[0] == 404
        assert rq(conn, "POST", "/fs/append/missing", b"x")[0] == 404
        rq(conn, "POST", "/fs/files/dup", b"")
        assert rq(conn, "POST", "/fs/files/dup", b"")[0] == 409
        assert rq(conn, "POST", "/fs/rename?src=/dup")[0] == 400


class TestConcurrentAppends:
    def test_many_threads_one_file_no_lost_appends(self, server):
        """The paper's claim over real sockets: concurrent appenders on
        one file all land, byte-exactly."""
        n_threads, per_thread = 8, 5
        c0 = http.client.HTTPConnection(server.host, server.port)
        c0.request("POST", "/fs/files/conc/shared", body=b"")
        resp = c0.getresponse()
        resp.read()  # keep-alive: drain before the next request
        assert resp.status in (200, 201)
        errors = []

        def appender(k):
            try:
                c = http.client.HTTPConnection(server.host, server.port)
                for _ in range(per_thread):
                    c.request(
                        "POST", "/fs/append/conc/shared", body=bytes([65 + k]) * 10
                    )
                    resp = c.getresponse()
                    body = resp.read()
                    if resp.status != 200:
                        errors.append((resp.status, body))
                c.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=appender, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        c0.request("GET", "/fs/stat/conc/shared")
        size = json.loads(c0.getresponse().read())["size"]
        assert size == n_threads * per_thread * 10
        c0.request("GET", "/fs/files/conc/shared")
        data = c0.getresponse().read()
        # every thread's blocks arrived intact (10 identical bytes each)
        assert len(data) == size
        counts = {bytes([65 + k]): 0 for k in range(n_threads)}
        for i in range(0, len(data), 10):
            block = data[i : i + 10]
            assert block == block[:1] * 10
            counts[block[:1]] += 1
        assert all(v == per_thread for v in counts.values())
        c0.close()


class TestObservability:
    def test_health_metrics_and_request_instruments(self, conn):
        status, _, doc, _ = rq(conn, "GET", "/healthz")
        assert status == 200 and doc == {"status": "ok"}
        status, _, doc, _ = rq(conn, "GET", "/metrics")
        assert status == 200
        assert doc["counters"]["http.requests"] > 0
        assert any(k.startswith("http.") for k in doc["histograms"])
        assert set(doc["placement"]) == {"provider_load", "down"}

    def test_keep_alive_reuses_one_connection(self, conn):
        for _ in range(3):
            status, _, _, _ = rq(conn, "GET", "/healthz")
            assert status == 200


class TestShutdown:
    def test_graceful_stop_drains_lease_timers(self):
        st = ServerThread(BlobServer(port=0, n_providers=2))
        host, port = st.start()
        c = http.client.HTTPConnection(host, port)
        c.request("POST", "/blob")
        blob = json.loads(c.getresponse().read())["blob_id"]
        c.request("POST", f"/blob/{blob}/append", body=b"data")
        assert c.getresponse().status == 200
        c.close()
        # appends armed (and then cancelled) lease timers; after a
        # graceful stop none may survive, or the process cannot exit
        st.stop()
        assert st.server.live_lease_timers == 0
        assert not st._thread.is_alive()

    def test_stop_is_idempotent(self):
        st = ServerThread(BlobServer(port=0, n_providers=2))
        st.start()
        st.stop()
        st.stop()
        assert st.server.live_lease_timers == 0

    def test_context_manager(self):
        with ServerThread(BlobServer(port=0, n_providers=2)) as st:
            c = http.client.HTTPConnection(st.server.host, st.server.port)
            c.request("GET", "/healthz")
            assert c.getresponse().status == 200
            c.close()
        assert st.server.live_lease_timers == 0

    def test_stop_reraises_what_the_loop_thread_raised(self):
        class Boom(Exception):
            pass

        server = BlobServer(port=0, n_providers=2)
        graceful = server.stop

        async def failing_stop():
            await graceful()
            raise Boom("stop failed")

        server.stop = failing_stop
        with pytest.raises(Boom):
            with ServerThread(server):
                pass
        assert server.live_lease_timers == 0

    def test_stop_raises_when_the_thread_outlives_its_timeout(self):
        server = BlobServer(port=0, n_providers=2)
        graceful = server.stop

        async def slow_stop():
            await asyncio.sleep(1.0)
            await graceful()

        server.stop = slow_stop
        st = ServerThread(server)
        st.start()
        with pytest.raises(RuntimeError, match="did not stop"):
            st.stop(timeout=0.1)
        assert st._thread.is_alive()
        st.stop()  # the slow stop finishes; the thread is joined
        assert not st._thread.is_alive()
        assert server.live_lease_timers == 0

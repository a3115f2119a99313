"""One request per HTTP route, over a real socket.

This is also a root of the traffic census (``tests/lint/
test_traffic_census.py``): it is what reaches the routes the census's
``serve`` root never sends. The last assertion fails when a route's
handler was not dispatched, so a new route without a request here fails.
"""

import http.client
import json

from repro.obs import Observability
from repro.server import BlobServer, ServerThread


def handlers():
    """Route names, as ``_dispatch`` names their histograms."""
    return {name[len("_h_"):] for name in dir(BlobServer) if name.startswith("_h_")}


def test_every_route_answers_one_request():
    with ServerThread(BlobServer(port=0, n_providers=4, obs=Observability.on())) as st:
        conn = http.client.HTTPConnection(st.server.host, st.server.port, timeout=30)

        def rq(method, target, body=None):
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            raw = resp.read()
            json_body = resp.getheader("Content-Type") == "application/json"
            return resp.status, json.loads(raw) if json_body else raw

        status, doc = rq("POST", "/blob?page_size=4")
        assert status == 201
        blob = doc["blob_id"]
        assert rq("POST", f"/blob/{blob}/append", b"12345678")[1]["version"] == 1
        assert rq("PUT", f"/blob/{blob}?offset=4", b"wxyz")[1]["version"] == 2
        assert rq("GET", f"/blob/{blob}?version=1&offset=2&length=4") == (200, b"3456")
        assert rq("GET", f"/blob/{blob}/stat")[1]["size"] == 8

        assert rq("POST", "/fs/mkdirs/job/out")[0] == 201
        assert rq("POST", "/fs/files/job/out/p0", b"abc")[0] == 201
        assert rq("POST", "/fs/append/job/out/p0", b"de")[1]["nbytes"] == 2
        assert rq("GET", "/fs/files/job/out/p0") == (200, b"abcde")
        assert rq("GET", "/fs/stat/job/out/p0")[1]["size"] == 5
        entries = rq("GET", "/fs/list/job/out")[1]["entries"]
        assert [e["path"] for e in entries] == ["/job/out/p0"]
        assert rq("POST", "/fs/rename?src=/job/out/p0&dst=/job/out/p1")[0] == 200
        assert rq("DELETE", "/fs/files/job/out/p1")[0] == 200

        assert rq("GET", "/healthz") == (200, {"status": "ok"})
        assert rq("GET", "/debug/traces")[1]["traceEvents"]
        status, doc = rq("GET", "/metrics")
        assert status == 200
        conn.close()
    routed = {
        name[len("http."):-len("_s")]
        for name in doc["histograms"]
        if name.startswith("http.") and name.endswith("_s")
    }
    assert routed == handlers()

"""The live stack serves with numpy absent.

``repro-serve`` and the BSFS library draw only placement's tie-break
permutation and the replica selector's phase, both from the in-tree
:class:`~repro.common.rng.Pcg64`. This test runs a server and a BSFS
deployment in a child interpreter whose import system refuses numpy, so
a module on the live path that imports numpy at load (or a draw that
reaches for it later) fails here by name.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD = textwrap.dedent(
    """
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"No module named {name!r}")
            return None

    sys.meta_path.insert(0, NoNumpy())

    import http.client
    import json

    from repro.bsfs import BSFS
    from repro.common.config import BlobSeerConfig
    from repro.obs import Observability
    from repro.server import BlobServer, ServerThread
    import repro.server.cli  # noqa: F401 - the served entry point loads too

    server = BlobServer(port=0, n_providers=4, obs=Observability.on())
    with ServerThread(server) as st:
        conn = http.client.HTTPConnection(st.server.host, st.server.port, timeout=30)

        def rq(method, target, body=None):
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            raw = resp.read()
            if resp.getheader("Content-Type") == "application/json":
                return resp.status, json.loads(raw)
            return resp.status, raw

        assert rq("POST", "/fs/files/out/part", b"abc")[0] == 201
        for chunk in (b"defg", b"hij"):
            assert rq("POST", "/fs/append/out/part", chunk)[0] == 200
        assert rq("GET", "/fs/files/out/part?offset=2&length=6") == (200, b"cdefgh")

        status, doc = rq("POST", "/blob?page_size=4")
        assert status == 201
        blob = doc["blob_id"]
        assert rq("POST", f"/blob/{blob}/append", b"12345678")[1]["version"] == 1
        assert rq("GET", f"/blob/{blob}?version=1&offset=3&length=4") == (200, b"4567")

        status, metrics = rq("GET", "/metrics")
        assert status == 200 and metrics["histograms"]
        status, traces = rq("GET", "/debug/traces")
        assert status == 200 and traces["traceEvents"]
        conn.close()

    dep = BSFS(config=BlobSeerConfig(page_size=64, replication=2), n_providers=4, seed=3)
    fs = dep.file_system("c0")
    fs.write_all("/lib/f", b"x" * 100)
    with fs.append("/lib/f") as out:
        out.write(b"y" * 50)
    assert fs.read_all("/lib/f") == b"x" * 100 + b"y" * 50

    assert "numpy" not in sys.modules
    print("served without numpy")
    """
)


def test_live_stack_serves_without_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "served without numpy"

"""The serving path keeps only what it serves: head-sampled tracing
into a ring, capped histograms, and operations that run inline on the
event loop without starting a thread.

Bulk cases drive ``BlobServer._dispatch`` in-process (thousands of
requests without sockets); the cases about threads and shared blobs go
over real sockets through :class:`ServerThread`.
"""

import asyncio
import http.client
import json
import sys
import threading

import pytest

from repro.blobseer.protocol import BlobSeerProtocol
from repro.bsfs import protocol as bsfs_protocol
from repro.common.config import BlobSeerConfig
from repro.engine.base import Payload
from repro.engine.threaded import ThreadedEngine
from repro.obs import NULL_SPAN, MetricsRegistry, Observability, Tracer
from repro.server import BlobServer, ServerThread
from repro.server import cli
from repro.server.http import read_request

FILE = "/live/shared"


def make_server(trace_sample=1, max_spans=None, hist_cap=None):
    obs = Observability(
        tracer=Tracer(max_spans=max_spans),
        registry=MetricsRegistry(default_hist_max_samples=hist_cap),
    )
    return BlobServer(n_providers=4, obs=obs, trace_sample=trace_sample)


def dispatch(server, *requests):
    """Run ``(method, target[, body])`` requests back to back on one
    loop, as one connection would; returns the responses."""

    async def go():
        out = []
        for method, target, *body in requests:
            body = body[0] if body else b""
            reader = asyncio.StreamReader()
            reader.feed_data(
                f"{method} {target} HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            reader.feed_eof()
            request = await read_request(reader)
            out.append(await server._dispatch(request, "http-1"))
        return out

    return asyncio.run(go())


def descends_from(span, root, by_id):
    while span.parent_id is not None:
        span = by_id[span.parent_id]
    return span is root


# -- the request span parents the operation -----------------------------------


class TestRequestSpanParentsTheOperation:
    @pytest.fixture()
    def server(self):
        # every second routed request is sampled, starting with the first
        server = make_server(trace_sample=2)
        created, _ = dispatch(
            server, ("POST", f"/fs/files{FILE}", b"seed"), ("GET", "/healthz")
        )
        server.blob_id = json.loads(created.body)["blob_id"]
        yield server
        server.service.close()

    @pytest.mark.parametrize(
        "method, target, body, operation",
        [
            ("POST", "/fs/append{file}", b"x" * 100, "bsfs.append"),
            ("POST", "/blob/{blob}/append", b"y" * 100, "blobseer.append"),
            ("GET", "/fs/files{file}", b"", "bsfs.read"),
        ],
    )
    def test_sampled_tree_hangs_off_http_request_unsampled_records_nothing(
        self, server, method, target, body, operation
    ):
        tracer = server.obs.tracer
        target = target.format(file=FILE, blob=server.blob_id)
        before = len(tracer)
        sampled, unsampled = dispatch(
            server, (method, target, body), (method, target, body)
        )
        assert sampled.status == unsampled.status == 200
        new = tracer.snapshot()[before:]
        roots = [s for s in new if s.parent_id is None]
        assert [s.name for s in roots] == ["http.request"]
        by_id = {s.span_id: s for s in new}
        assert all(descends_from(s, roots[0], by_id) for s in new)
        # the operation and its engine ops are in there, not just the root
        assert operation in {s.name for s in new}
        assert any(s.cat.startswith("engine.") for s in new)
        assert not tracer.open_spans()
        # ...and exactly one of the two requests recorded anything
        assert sum(s.name == operation for s in new) == 1

    def test_sampled_append_records_exactly_the_spans_a_direct_append_does(self):
        """Sampling is inheritance, not a second code path: the tree
        below ``http.request`` is the tree the protocol core records on
        its own, under the profile the server serves (the namespace
        record cache: no namespace lookup; no node cache, which runs
        only where metadata RPCs are billed, so the boundary read and
        the build each record an ``engine.charge_md``)."""
        via_http, direct = make_server(), make_server()
        for server in (via_http, direct):
            dispatch(server, ("POST", f"/fs/files{FILE}", b"seed"))
        before = len(via_http.obs.tracer)
        dispatch(via_http, ("POST", f"/fs/append{FILE}", b"z" * 100))
        http_spans = via_http.obs.tracer.snapshot()[before:]
        before = len(direct.obs.tracer)
        asyncio.run(
            direct.engine.run(
                direct.bsfs.append_file("http-1", FILE, Payload(b"z" * 100))
            )
        )
        direct_spans = direct.obs.tracer.snapshot()[before:]
        assert http_spans[0].name == "http.request"
        assert [(s.name, s.cat) for s in http_spans[1:]] == [
            (s.name, s.cat) for s in direct_spans
        ]
        assert direct_spans[0].name == "bsfs.append"
        assert direct.service.config == BlobSeerConfig().fast(group_commit=False)
        assert len(direct_spans) == 10
        assert [s.name for s in direct_spans].count("engine.charge_md") == 2
        for server in (via_http, direct):
            server.service.close()


def test_an_unsampled_append_yields_no_metadata_charge_op():
    """Below an unrecorded request the live engine's metadata charge is
    no op at all, as with no tracer: the trampoline runs nothing for it.
    A sampled append keeps both of its ``engine.charge_md`` ops."""
    server = make_server(trace_sample=2)
    ops = []
    charge = server.engine.charge_md

    def spy(parent, keys):
        op = charge(parent, keys)
        ops.append((parent is NULL_SPAN, op))
        return op

    server.engine.charge_md = spy
    # the create is sampled, then every second request
    responses = dispatch(
        server,
        ("POST", f"/fs/files{FILE}", b"seed"),
        *[("POST", f"/fs/append{FILE}", b"q" * 100)] * 4,
    )
    assert {r.status for r in responses} == {201, 200}
    unsampled = [op for null, op in ops if null]
    sampled = [op for null, op in ops if not null]
    # two appends of each kind, each a boundary read and a build; the
    # seed's first append has no boundary to read
    assert unsampled == [None] * 4
    assert len(sampled) == 1 + 4 and None not in sampled
    names = [s.name for s in server.obs.tracer.snapshot()]
    assert names.count("engine.charge_md") == 5
    server.service.close()


def test_served_appends_read_the_dht_without_a_node_cache():
    """A node get on the live path is one dict lookup, so the server
    builds no node cache: nothing would be saved by one, since the live
    engines bill no metadata RPCs."""
    server = make_server()
    responses = dispatch(
        server,
        ("POST", f"/fs/files{FILE}", b"seed"),
        *[("POST", f"/fs/append{FILE}", b"u" * 100)] * 5,
    )
    assert {r.status for r in responses} == {201, 200}
    assert server.service.protocol._node_cache is None
    assert server.obs.registry.value("md.cache.hits") == 0
    # unaligned appends read their boundary leaf from the DHT itself
    assert sum(server.service.dht.gets) > 0
    server.service.close()


# -- bounded by construction ---------------------------------------------------


class TestBoundedTracing:
    def requests(self, server, n):
        """*n* routed requests — a create, then appends — returning the
        name of every span actually recorded."""
        started = []
        start = server.obs.tracer.start

        def counting(name, **kw):
            span = start(name, **kw)
            if span is not NULL_SPAN:
                started.append(name)
            return span

        server.obs.tracer.start = counting
        responses = dispatch(
            server,
            ("POST", f"/fs/files{FILE}?page_size=65536"),
            *[("POST", f"/fs/append{FILE}", b"r" * 64)] * (n - 1),
        )
        assert {r.status for r in responses} == {201, 200}
        server.service.close()
        return started

    def test_ring_and_one_in_n_sampling(self):
        server = make_server(trace_sample=64, max_spans=256)
        started = self.requests(server, 5000)
        assert started.count("http.request") == -(-5000 // 64)
        assert len(started) > 256  # the ring did wrap
        # what is retained is the newest spans, in start order
        ids = [s.span_id for s in server.obs.tracer.snapshot()]
        assert len(ids) == len(server.obs.tracer) == 256
        assert ids == list(range(len(started) - 255, len(started) + 1))

    def test_sample_1_records_every_request(self):
        started = self.requests(make_server(trace_sample=1), 40)
        assert started.count("http.request") == 40
        assert started.count("bsfs.append") == 39

    def test_sample_0_records_none(self):
        server = make_server(trace_sample=0)
        assert self.requests(server, 40) == []
        assert len(server.obs.tracer) == 0


def test_histograms_keep_a_reservoir_and_exact_counts():
    cap = 32
    server = make_server(hist_cap=cap)
    dispatch(server, *[("GET", "/healthz")] * (3 * cap))
    (metrics,) = dispatch(server, ("GET", "/metrics"))
    doc = json.loads(metrics.body)
    assert doc["histograms"]["http.healthz_s"]["count"] == 3 * cap
    hist = server.obs.registry.histograms()["http.healthz_s"]
    assert len(hist._samples) <= cap
    server.service.close()


def test_namespace_record_cache_keeps_the_newest_paths(monkeypatch):
    monkeypatch.setattr(bsfs_protocol, "RECORD_CACHE_PATHS", 2)
    server = make_server()
    paths = [f"/cap/f{i}" for i in range(3)]
    dispatch(server, *[("POST", f"/fs/files{p}", p.encode()) for p in paths])
    assert list(server.bsfs._record_cache) == paths[1:]
    reads = dispatch(server, *[("GET", f"/fs/files{p}") for p in paths])
    assert [r.body for r in reads] == [p.encode() for p in paths]
    assert len(server.bsfs._record_cache) == 2
    server.service.close()


def test_repro_serve_bounds_its_tracer_and_histograms(monkeypatch):
    built = {}

    async def no_serve(self):
        built["server"] = self
        raise KeyboardInterrupt

    monkeypatch.setattr(BlobServer, "start", no_serve)
    assert cli.main(["--port", "0", "--providers", "2"]) == 130
    server = built["server"]
    assert server.obs.tracer.enabled
    assert server.obs.tracer.spans.maxlen == cli.TRACE_RING_SPANS
    assert server._trace_sample == 64
    assert (
        server.obs.registry.default_hist_max_samples == cli.HIST_MAX_SAMPLES
    )
    assert cli.main(["--port", "0", "--trace-sample", "0"]) == 130
    assert not built["server"].obs.tracer.enabled
    with pytest.raises(SystemExit) as bad:
        cli.main(["--trace-sample", "-1"])
    assert bad.value.code == 2


# -- GET /debug/traces ---------------------------------------------------------


class TestDebugTraces:
    def test_returns_the_ring_as_a_chrome_trace(self):
        server = make_server(trace_sample=1)
        dispatch(
            server,
            ("POST", f"/fs/files{FILE}"),
            ("POST", f"/fs/append{FILE}", b"t" * 10),
        )
        server.obs.tracer.instant("vm.lease_expired", cat="fault", track="faults")
        (resp,) = dispatch(server, ("GET", "/debug/traces"))
        assert resp.status == 200 and resp.content_type == "application/json"
        events = json.loads(resp.body)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        requests = [e for e in spans if e["name"] == "http.request"]
        assert [e["args"]["route"] for e in requests] == [
            "fs_create", "fs_append", "debug_traces",
        ]
        append = next(e for e in spans if e["name"] == "bsfs.append")
        assert append["args"]["parent_id"] == requests[1]["args"]["span_id"]
        assert [e["name"] for e in events if e["ph"] == "i"] == [
            "vm.lease_expired"
        ]
        server.service.close()

    def test_spans_whose_parent_was_evicted_export_as_roots(self):
        server = make_server(trace_sample=1, max_spans=8)
        dispatch(
            server,
            ("POST", f"/fs/files{FILE}"),
            ("POST", f"/fs/append{FILE}", b"t" * 10),
        )
        (resp,) = dispatch(server, ("GET", "/debug/traces"))
        spans = [
            e for e in json.loads(resp.body)["traceEvents"] if e["ph"] == "X"
        ]
        assert len(spans) == 8
        ids = {e["args"]["span_id"] for e in spans}
        assert any("parent_id" not in e["args"] for e in spans[:-1])
        assert all(e["args"].get("parent_id", min(ids)) in ids for e in spans)
        server.service.close()


# -- over real sockets ---------------------------------------------------------


@pytest.fixture()
def live():
    with ServerThread(BlobServer(port=0, n_providers=4)) as st:
        yield st.server


def request(server, method, target, body=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, target, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_appends_start_no_threads(live):
    request(live, "POST", f"/fs/files{FILE}?page_size=65536")
    errors = []

    def client():
        conn = http.client.HTTPConnection(live.host, live.port, timeout=30)
        try:
            for _ in range(63):
                conn.request("POST", f"/fs/append{FILE}", body=b"k" * 128)
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    errors.append(resp.status)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            conn.close()

    before = threading.active_count()
    clients = [threading.Thread(target=client) for _ in range(8)]
    for t in clients:
        t.start()
    for t in clients:
        t.join(60)
    assert not any(t.is_alive() for t in clients) and not errors
    assert request(live, "GET", f"/fs/stat{FILE}")[1]["size"] == 8 * 63 * 128
    assert threading.active_count() == before


def test_loop_and_thread_appenders_share_one_blob(live):
    """Stress both wake directions: HTTP appends (inline on the loop) and
    the threaded engine's blocking appends, on the same version manager
    and the same BLOB, with the interpreter switching threads as often
    as it can. A lost wake-up shows as a turn timeout or a wedged join;
    a lost update as a damaged or missing record."""
    service = live.service
    threaded = ThreadedEngine()
    threaded.bind("vm", service.version_manager)
    threaded.bind_providers(service.providers)
    protocol = BlobSeerProtocol(
        threaded, service.config, service.provider_manager, service.dht
    )
    _, doc = request(live, "POST", "/blob?page_size=256")
    blob = doc["blob_id"]
    per_writer, record = 25, 100
    errors = []

    def over_http(k):
        conn = http.client.HTTPConnection(live.host, live.port, timeout=60)
        try:
            for _ in range(per_writer):
                conn.request(
                    "POST", f"/blob/{blob}/append", body=bytes([65 + k]) * record
                )
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    errors.append((k, resp.status))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((k, exc))
        finally:
            conn.close()

    def in_a_thread(k):
        try:
            for _ in range(per_writer):
                threaded.run(
                    protocol.update(
                        f"thread-{k}", blob, Payload(bytes([65 + k]) * record)
                    )
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((k, exc))

    writers = [
        threading.Thread(target=over_http if k % 2 else in_a_thread, args=(k,))
        for k in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers:
            t.start()
        for t in writers:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers) and not errors
    _version, data = threaded.run(
        protocol.read("checker", blob, 0, 8 * per_writer * record)
    )
    blocks = [data[i : i + record] for i in range(0, len(data), record)]
    assert all(block == block[:1] * record for block in blocks)
    assert sorted(block[0] for block in blocks) == sorted(
        [65 + k for k in range(8)] * per_writer
    )
    assert service.version_manager.core.commit_queue_length == 0

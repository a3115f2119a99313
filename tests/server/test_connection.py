"""The connection layer without sockets: :class:`HttpConnection` driven
through ``get_buffer``/``buffer_updated`` by a fake transport, as
asyncio's selector transport drives it — plus the lifecycle and
backpressure cases over real sockets.

The fake transport keeps what the server wrote until the test
"client" drains it, pauses the protocol past a high-water mark, and
reports the connection lost only once a closed transport has flushed,
like the real one.
"""

import asyncio
import http.client
import json
import socket
import time

import pytest

from repro.engine.base import Payload
from repro.server import BlobServer, ServerThread
from repro.server.app import _RECV_BUFFER, HttpConnection
from repro.server.http import MAX_HEADER_BYTES


class FakeTransport:
    """The transport half of one connection."""

    def __init__(self, conn: HttpConnection, high_water=None) -> None:
        self.conn = conn
        self.high_water = high_water
        #: what the server wrote that the client has not drained
        self.out = bytearray()
        #: what the client sent that the server has not read
        self.incoming = bytearray()
        self.reading = True
        self.closing = False
        self.lost = False
        self.reads = 0
        self._protocol_paused = False
        conn.connection_made(self)

    # -- the transport interface the connection calls -----------------------

    def write(self, data: bytes) -> None:
        assert not self.closing, "write after close"
        self.out += data
        if (
            self.high_water is not None
            and len(self.out) > self.high_water
            and not self._protocol_paused
        ):
            self._protocol_paused = True
            self.conn.pause_writing()

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        self.closing = True
        self._maybe_lose()

    def abort(self) -> None:
        self.out.clear()
        self.closing = True
        asyncio.get_running_loop().call_soon(self._maybe_lose)

    # -- the client side -----------------------------------------------------

    def send(self, data: bytes, step=None) -> None:
        """The client sends *data*; the server reads it at most *step*
        bytes (and at most one buffer) per read, while it reads."""
        self.incoming += data
        self.receive(step)

    def receive(self, step=None) -> None:
        """Deliver pending bytes while the connection reads."""
        while self.incoming and self.reading and not self.closing:
            buf = self.conn.get_buffer(-1)
            assert len(buf) > 0
            n = min(len(buf), len(self.incoming), step or len(self.incoming))
            buf[:n] = self.incoming[:n]
            del self.incoming[:n]
            self.reads += 1
            self.conn.buffer_updated(n)

    def send_eof(self) -> None:
        self.conn.eof_received()

    def drain(self) -> bytes:
        """The client reads everything written so far."""
        data = bytes(self.out)
        self.out.clear()
        if self._protocol_paused:
            self._protocol_paused = False
            self.conn.resume_writing()
        self._maybe_lose()
        return data

    def _maybe_lose(self) -> None:
        if self.closing and not self.out and not self.lost:
            self.lost = True
            self.conn.connection_lost(None)


def split_responses(raw: bytes):
    """Every response in *raw*, as (status, headers, body)."""
    out = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head!r}"
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        n = int(headers["content-length"])
        out.append((int(lines[0].split(" ", 2)[1]), headers, raw[:n]))
        raw = raw[n:]
    return out


def req(method: str, target: str, body: bytes = b"", version="HTTP/1.1",
        headers: str = "") -> bytes:
    return (
        f"{method} {target} {version}\r\nContent-Length: {len(body)}\r\n"
        f"{headers}\r\n"
    ).encode() + body


@pytest.fixture()
def server():
    server = BlobServer(n_providers=2, max_body=2 << 20)
    yield server
    server.service.close()


@pytest.fixture()
def blob(server):
    return server.service.create_blob(4096)


def connect(server, high_water=None):
    conn = HttpConnection(server)
    return conn, FakeTransport(conn, high_water)


class TestFraming:
    def test_a_request_delivered_one_byte_at_a_time(self, server, blob):
        conn, t = connect(server)
        t.send(req("POST", f"/blob/{blob}/append", b"abcdef"), step=1)
        [(status, headers, body)] = split_responses(t.drain())
        assert status == 200 and json.loads(body)["nbytes"] == 6
        assert headers["connection"] == "keep-alive" and not t.closing
        assert t.reads > 6

    def test_two_pipelined_requests_in_one_read_answered_in_order(
        self, server, blob
    ):
        conn, t = connect(server)
        t.send(
            req("POST", f"/blob/{blob}/append", b"ab")
            + req("POST", f"/blob/{blob}/append", b"cde")
        )
        assert t.reads == 1
        docs = [json.loads(body) for _, _, body in split_responses(t.drain())]
        assert [(d["version"], d["offset"], d["nbytes"]) for d in docs] == [
            (1, 0, 2),
            (2, 2, 3),
        ]

    def test_a_body_split_across_reads(self, server, blob):
        conn, t = connect(server)
        raw = req("POST", f"/blob/{blob}/append", b"x" * 1000)
        t.send(raw[:-600])
        assert t.drain() == b""  # the request waits for its body
        t.send(raw[-600:])
        [(status, _, body)] = split_responses(t.drain())
        assert status == 200 and json.loads(body)["nbytes"] == 1000

    def test_a_head_over_the_limit_is_400_and_closes(self, server):
        conn, t = connect(server)
        t.send(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES)
        [(status, headers, _)] = split_responses(t.drain())
        assert status == 400 and headers["connection"] == "close"
        assert t.lost
        assert len(conn._buf) == _RECV_BUFFER

    def test_a_body_over_max_body_is_413_and_never_buffered(self):
        server = BlobServer(n_providers=2, max_body=1024)
        try:
            blob = server.service.create_blob(4096)
            conn, t = connect(server)
            t.send(req("POST", f"/blob/{blob}/append", b"z" * (1 << 20)))
            [(status, headers, _)] = split_responses(t.drain())
            assert status == 413 and headers["connection"] == "close"
            assert t.lost and t.reads == 1
            assert len(conn._buf) == _RECV_BUFFER
            assert len(t.incoming) > (1 << 20) - _RECV_BUFFER
        finally:
            server.service.close()

    def test_a_1_mib_body_grows_the_buffer_for_itself_only(self, server, blob):
        conn, t = connect(server)
        data = bytes(range(256)) * 4096
        t.send(
            req("POST", f"/blob/{blob}/append", data)
            + req("GET", f"/blob/{blob}")
        )
        (s1, _, b1), (s2, _, b2) = split_responses(t.drain())
        assert s1 == 200 and json.loads(b1)["nbytes"] == len(data)
        assert s2 == 200 and b2 == data
        assert len(conn._buf) == _RECV_BUFFER

    def test_a_declared_body_grows_the_buffer_only_as_it_arrives(self):
        server = BlobServer(n_providers=2)  # the default 64 MiB max_body
        try:
            blob = server.service.create_blob(4096)
            conn, t = connect(server)
            assert len(conn._buf) == 0  # nothing read, nothing held
            declared = 64 << 20
            t.send(
                f"POST /blob/{blob}/append HTTP/1.1\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode()
            )
            assert t.drain() == b""  # the request waits for its body
            assert len(conn._buf) == _RECV_BUFFER
            received = 100 * 1024
            t.send(b"q" * received)
            assert t.drain() == b""
            assert _RECV_BUFFER < len(conn._buf) <= 2 * received
            t.send_eof()
            [(status, _, _)] = split_responses(t.drain())
            assert status == 400 and t.lost
        finally:
            server.service.close()

    def test_a_handler_error_mid_pipeline_does_not_stop_the_next(
        self, server, blob
    ):
        async def boom(request, client, span):
            raise RuntimeError("handler bug")

        server._h_healthz = boom
        conn, t = connect(server)
        t.send(
            req("POST", f"/blob/{blob}/append", b"a")
            + req("GET", "/healthz")
            + req("POST", f"/blob/{blob + 1000}/append", b"b")
            + req("POST", f"/blob/{blob}/append", b"c")
        )
        statuses = [status for status, _, _ in split_responses(t.drain())]
        assert statuses == [200, 500, 404, 200]
        assert not t.closing


class TestEndOfInput:
    def test_eof_mid_head_is_400(self, server):
        conn, t = connect(server)
        t.send(b"GET /healthz HTTP/1.1\r\nHo")
        t.send_eof()
        [(status, _, body)] = split_responses(t.drain())
        assert status == 400 and b"truncated request head" in body
        assert t.lost

    def test_eof_mid_body_is_400(self, server, blob):
        conn, t = connect(server)
        t.send(req("POST", f"/blob/{blob}/append", b"x" * 100)[:-10])
        t.send_eof()
        [(status, _, body)] = split_responses(t.drain())
        assert status == 400 and b"closed mid-body" in body
        assert t.lost

    def test_clean_eof_between_requests_closes_silently(self, server):
        conn, t = connect(server)
        t.send(req("GET", "/healthz"))
        t.send_eof()
        [(status, _, _)] = split_responses(t.drain())
        assert status == 200 and t.lost

    @pytest.mark.parametrize(
        "version, headers",
        [("HTTP/1.0", ""), ("HTTP/1.1", "Connection: close\r\n")],
    )
    def test_a_last_request_closes_after_its_reply(self, server, version,
                                                   headers):
        conn, t = connect(server)
        t.send(
            req("GET", "/healthz", version=version, headers=headers)
            + req("GET", "/healthz")
        )
        [(status, resp_headers, _)] = split_responses(t.drain())
        assert status == 200 and resp_headers["connection"] == "close"
        assert t.lost


class TestBackpressure:
    def test_reading_pauses_past_high_water_and_resumes_on_drain(
        self, server, blob
    ):
        asyncio.run(
            server.engine.run(
                server.blobseer.update("c", blob, Payload(b"r" * 4096))
            )
        )
        conn, t = connect(server, high_water=1000)
        t.send(req("GET", f"/blob/{blob}") * 5)
        assert t.reads == 1
        got = []
        for _ in range(5):
            # one reply queued; the rest of the requests wait in the buffer
            assert not t.reading
            more = split_responses(t.drain())
            assert len(more) == 1
            got += more
        assert [body for _, _, body in got] == [b"r" * 4096] * 5
        # the last drain left nothing to answer: reading resumed
        assert t.reading and t.drain() == b"" and not t.closing

    def test_a_request_served_during_shutdown_gets_connection_close(
        self, server, blob
    ):
        conn, t = connect(server, high_water=50)
        t.send(req("GET", "/healthz") * 3)
        assert not t.reading

        async def stop_while_the_client_drains():
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)
            assert not t.lost  # requests wait behind the full write buffer
            first = t.drain()
            second = t.drain()
            await stopping
            return first, second

        first, second = asyncio.run(stop_while_the_client_drains())
        [(s1, h1, _)] = split_responses(first)
        [(s2, h2, _)] = split_responses(second)
        assert (s1, h1["connection"]) == (200, "keep-alive")
        assert (s2, h2["connection"]) == (200, "close")
        assert t.lost and not server._conns
        assert server.live_lease_timers == 0

    def test_stop_aborts_a_client_that_never_drains(self, server):
        conn, t = connect(server, high_water=50)
        t.send(req("GET", "/healthz") * 3)
        asyncio.run(server.stop(drain_s=0.05))
        assert t.lost and not server._conns


# -- over real sockets ---------------------------------------------------------


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestOverSockets:
    def test_a_client_that_does_not_read_pauses_its_connection(self):
        """Pipelined reads of a 256 KiB blob fill the kernel's socket
        buffers and then the transport's: reading pauses, and every
        reply arrives intact once the client reads."""
        st = ServerThread(BlobServer(port=0, n_providers=2))
        host, port = st.start()
        try:
            data = bytes(range(256)) * 1024
            c = http.client.HTTPConnection(host, port)
            c.request("POST", "/blob")
            blob = json.loads(c.getresponse().read())["blob_id"]
            c.request("POST", f"/blob/{blob}/append", body=data)
            assert c.getresponse().read()
            c.close()
            n = 24
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.sendall(
                req("GET", f"/blob/{blob}") * (n - 1)
                + req("GET", f"/blob/{blob}", headers="Connection: close\r\n")
            )
            _wait_for(lambda: any(c._paused for c in list(st.server._conns)))
            raw = bytearray()
            while chunk := sock.recv(1 << 20):
                raw += chunk
            got = split_responses(bytes(raw))
            assert [(s, b == data) for s, _, b in got] == [(200, True)] * n
            assert got[-1][1]["connection"] == "close"
            sock.close()
        finally:
            st.stop()
        assert st.server.live_lease_timers == 0

    def test_stop_closes_idle_and_half_received_connections(self):
        st = ServerThread(BlobServer(port=0, n_providers=2))
        host, port = st.start()
        idle = socket.create_connection((host, port))
        idle.sendall(req("GET", "/healthz"))
        assert idle.recv(4096).startswith(b"HTTP/1.1 200")
        half_body = socket.create_connection((host, port))
        half_body.sendall(req("POST", "/blob/1/append", b"x" * 100)[:-50])
        half_head = socket.create_connection((host, port))
        half_head.sendall(b"GET /healthz HTTP/1.1\r\nHo")
        _wait_for(
            lambda: sum(c._end > 0 for c in list(st.server._conns)) == 2
            and len(st.server._conns) == 3
        )
        t0 = time.monotonic()
        st.stop()
        # closed at once, not after the 2 s drain for unread replies
        assert time.monotonic() - t0 < 1.5
        for sock in (idle, half_body, half_head):
            sock.settimeout(5)
            assert sock.recv(4096) == b""
            sock.close()
        assert not st._thread.is_alive()
        assert st.server.live_lease_timers == 0

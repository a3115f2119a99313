"""The HTTP blob/file front-end: real traffic against the BlobSeer stack.

One :class:`BlobServer` is one network-facing deployment: the threaded
components (version manager, providers, namespace manager), the
sans-IO protocol cores on top, and a handwritten HTTP/1.1 loop
(:mod:`repro.server.http`) in front. Every connection is one
:class:`HttpConnection` protocol: the socket is read into one reusable
buffer, and each request it completes is parsed, run to completion
inline through the threaded trampoline
(:class:`~repro.engine.aio.AsyncioEngine`) and answered, all in the
callback that read its last byte. So hundreds of clients share one
process and one event loop, and concurrent appends serialize exactly
where BlobSeer says they should (the version manager's ticket/commit
queue) and nowhere else.

Endpoints (all bodies are raw bytes; responses are JSON unless the
route returns data):

==========================================  =================================
``POST /blob``                              create a BLOB → ``{"blob_id"}``
``POST /blob/{id}/append``                  append body → version/offset
``PUT  /blob/{id}/write?offset=``           write-at-offset → version
``GET  /blob/{id}?version=&offset=&length=``  ranged versioned read (bytes)
``GET  /blob/{id}/stat?version=``           size/version metadata
``POST /fs/files{path}``                    create file (fresh BLOB behind)
``POST /fs/append{path}``                   two-step BSFS append
``GET  /fs/files{path}?offset=&length=``    read through the namespace size
``GET  /fs/stat{path}``                     file status
``GET  /fs/list{path}``                     directory listing
``POST /fs/mkdirs{path}``                   create directories
``POST /fs/rename?src=&dst=``               rename
``DELETE /fs/files{path}?recursive=``       delete
``GET  /healthz``, ``GET /metrics``         liveness / registry snapshot
``GET  /debug/traces``                      retained spans, Chrome trace JSON
==========================================  =================================

Observability is threaded through every request: a per-route latency
histogram (``http.<route>_s``) and ``http.requests``/``http.errors``
counters in the deployment's :class:`~repro.obs.MetricsRegistry`
(``GET /metrics`` reads them back) — and, for one request in
``trace_sample``, a span tree. The sampling decision is taken once, when
the request's ``http.request`` span would open (a deterministic
counter, no RNG): a sampled request hands that span to the protocol
core as the *parent* of its operation, so everything the operation
records hangs below it; an unsampled one hands down
:data:`~repro.obs.NULL_SPAN`, below which nothing is recorded (see
:mod:`repro.obs.tracer`). ``GET /debug/traces`` reads back whatever the
tracer still retains.

Shutdown is graceful by contract: :meth:`BlobServer.stop` stops
accepting, closes idle connections and those holding a partial
request, lets a client that has not read its replies take them (then
aborts it) and closes the service (the version manager stops expiring
leases); neither the service nor the engine owns a thread.
``tests/server`` asserts ``live_lease_timers == 0`` after a stop.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Optional, Tuple

from ..blobseer.client import BlobSeerService
from ..bsfs.client import BSFS
from ..common.config import BlobSeerConfig
from ..common.errors import (
    AppendAbortedError,
    BlobNotFoundError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    FileSystemError,
    OutOfRangeReadError,
    PageNotFoundError,
    ReplicationError,
    VersionNotFoundError,
    VersionNotReadyError,
)
from ..engine.aio import AsyncioEngine
from ..engine.base import Payload
from ..obs import NULL_OBS, NULL_SPAN, Observability, chrome_trace
from .http import (
    DEFAULT_MAX_BODY,
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    Response,
    read_request,
)

#: exception -> HTTP status for expected failures; anything else is a 500
_ERROR_STATUS = (
    (FileAlreadyExistsError, 409),
    (FileNotFoundInNamespaceError, 404),
    (FileSystemError, 400),
    (BlobNotFoundError, 404),
    (VersionNotFoundError, 404),
    (VersionNotReadyError, 409),
    (AppendAbortedError, 409),
    (PageNotFoundError, 404),
    (OutOfRangeReadError, 416),
    (ReplicationError, 503),
    (ValueError, 400),
)


class BlobServer:
    """One network-facing BlobSeer/BSFS deployment on asyncio.

    Tickets on the served service are taken only through the server's
    loop. An update runs from ``assign`` to ``commit`` without yielding,
    so its predecessor has always resolved by its metadata turn, and an
    update that fails gives its ticket back before it answers: no route
    leaves a ticket open. A *library* caller that takes a ticket on
    :attr:`service` blocks the loop's next update of that blob until the
    ticket commits or its lease expires.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[BlobSeerConfig] = None,
        n_providers: int = 8,
        seed: int = 0,
        obs: Optional[Observability] = None,
        max_body: int = DEFAULT_MAX_BODY,
        trace_sample: int = 1,
    ) -> None:
        """Without a *config* the deployment runs the ``fast`` profile
        without group commit — see :meth:`BlobSeerConfig.fast`. Its
        namespace record cache serves; its node cache is never built,
        since the live engines bill no metadata RPCs.

        *trace_sample* = N records the span tree of every N-th
        routed request (1: every request, 0: none) — if *obs* traces
        at all."""
        if config is None:
            config = BlobSeerConfig().fast(group_commit=False)
        self.obs = obs or NULL_OBS
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.engine = AsyncioEngine(seed=seed, obs=self.obs)
        self.service = BlobSeerService(
            config=config,
            n_providers=n_providers,
            seed=seed,
            obs=self.obs,
            engine=self.engine,
        )
        self.deployment = BSFS(service=self.service, obs=self.obs)
        self.namespace = self.deployment.namespace
        self.blobseer = self.service.protocol
        self.bsfs = self.deployment.protocol
        self._max_body = max_body
        self._server: Optional[asyncio.base_events.Server] = None
        #: open connections; a stop waits on ``_drained`` for them to go
        self._conns: set = set()
        self._drained: Optional[asyncio.Future] = None
        self._conn_ids = itertools.count(1)
        self._stopped = False
        registry = self.obs.registry
        self._c_requests = registry.counter("http.requests")
        self._c_errors = registry.counter("http.errors")
        self._c_conns = registry.counter("http.connections")
        #: route name -> its latency histogram, resolved on first use
        self._route_hists: dict = {}
        self._tracer = self.obs.tracer
        self._trace_sample = trace_sample
        self._routed = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: HttpConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self, drain_s: float = 2.0) -> None:
        """Graceful stop: close the listener, then every connection that
        is idle or holds a partial request, give the rest — those whose
        client has not read its replies — *drain_s* seconds to take
        them (the next request each serves is its last), abort the
        stragglers, then release the service. Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            # a paused connection has requests waiting behind a full
            # write buffer: once its client drains it, it answers the
            # next one with "Connection: close" and closes
            if not conn._paused:
                conn._close()
        if self._conns:
            self._drained = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._drained, drain_s)
            except asyncio.TimeoutError:
                for conn in list(self._conns):
                    conn.transport.abort()
                # connection_lost runs on the loop's next turn
                await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
        self.service.close()

    def _forget(self, conn: "HttpConnection") -> None:
        """A connection is gone; the last one to go ends a stop's drain."""
        self._conns.discard(conn)
        drained = self._drained
        if not self._conns and drained is not None and not drained.done():
            drained.set_result(None)

    @property
    def live_lease_timers(self) -> int:
        """Running version-manager lease clocks (0 after stop)."""
        return self.service.version_manager.live_lease_timers

    # -- one request ---------------------------------------------------------

    async def _dispatch(self, request: Request, client: str) -> Response:
        """Route, run, observe, and map failures to statuses."""
        self._c_requests.inc()
        try:
            route, handler = self._route(request)
        except HttpError as err:
            self._c_errors.inc()
            return Response.error(err.status, err.message)
        hist = self._route_hists.get(route)
        if hist is None:
            hist = self._route_hists[route] = self.obs.registry.histogram(
                f"http.{route}_s"
            )
        every = self._trace_sample
        sampled = every and self._routed % every == 0
        self._routed += 1
        span = NULL_SPAN
        if sampled:
            span = self._tracer.start(
                "http.request",
                cat="http",
                track=client,
                route=route,
                method=request.method,
                path=request.path,
            )
        t0 = self.engine.now()
        try:
            response = await handler(request, client, span)
        except HttpError as err:
            self._c_errors.inc()
            response = Response.error(err.status, err.message)
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP statuses
            self._c_errors.inc()
            for exc_type, status in _ERROR_STATUS:
                if isinstance(exc, exc_type):
                    response = Response.error(status, str(exc))
                    break
            else:
                response = Response.error(
                    500, f"{type(exc).__name__}: {exc}"
                )
            span.set(error=type(exc).__name__)
        hist.observe(self.engine.now() - t0)
        span.finish(status=response.status)
        return response

    # -- routing -------------------------------------------------------------

    def _route(self, request: Request):
        """Resolve (route_name, handler); fills ``request.params``."""
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return "healthz", self._h_healthz
        if path == "/metrics" and method == "GET":
            return "metrics", self._h_metrics
        if path == "/debug/traces" and method == "GET":
            return "debug_traces", self._h_debug_traces
        if path == "/blob" or path == "/blob/":
            if method == "POST":
                return "blob_create", self._h_blob_create
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/blob/"):
            rest = path[len("/blob/"):]
            blob_part, _, action = rest.partition("/")
            if not blob_part.isdigit():
                raise HttpError(400, f"bad blob id {blob_part!r}")
            request.params["blob_id"] = blob_part
            if action == "" and method == "GET":
                return "blob_read", self._h_blob_read
            if action == "" and method == "PUT":
                return "blob_write", self._h_blob_write
            if action == "append" and method == "POST":
                return "blob_append", self._h_blob_append
            if action == "stat" and method == "GET":
                return "blob_stat", self._h_blob_stat
            raise HttpError(
                405 if action in ("", "append", "stat") else 404,
                f"{method} {path} not routable",
            )
        for prefix, routes in _FS_ROUTES.items():
            if path.startswith(prefix):
                fs_path = path[len(prefix):] or "/"
                handler_name = routes.get(request.method)
                if handler_name is None:
                    raise HttpError(405, f"{method} not allowed on {prefix}")
                request.params["path"] = fs_path
                return handler_name, getattr(self, f"_h_{handler_name}")
        if path == "/fs/rename" and method == "POST":
            return "fs_rename", self._h_fs_rename
        raise HttpError(404, f"no route for {method} {path}")

    # -- handlers: service ---------------------------------------------------

    async def _h_healthz(self, request: Request, client: str, span) -> Response:
        return Response.json({"status": "ok"})

    async def _h_metrics(self, request: Request, client: str, span) -> Response:
        doc = self.obs.registry.snapshot()
        # the storage-plane placement view rides along: per-provider
        # byte loads and who is down
        pm = self.service.provider_manager
        doc["placement"] = {
            "provider_load": pm.load_snapshot(),
            "down": pm.down_snapshot(),
        }
        return Response.json(doc)

    async def _h_debug_traces(self, request: Request, client: str, span) -> Response:
        """The spans the tracer retains (sampled request trees, fault
        and lease instants), as a Chrome ``trace_event`` document."""
        return Response.json(chrome_trace(self._tracer))

    # -- handlers: blob plane ------------------------------------------------

    async def _h_blob_create(self, request: Request, client: str, span) -> Response:
        page_size = request.query_int("page_size")
        blob_id = self.service.create_blob(page_size)
        return Response.json({"blob_id": blob_id}, status=201)

    async def _h_blob_append(self, request: Request, client: str, span) -> Response:
        blob_id = int(request.params["blob_id"])
        if not request.body:
            raise HttpError(400, "append body must not be empty")
        version, offset, _ = await self.engine.run(
            self.blobseer.update(client, blob_id, Payload(request.body), parent=span)
        )
        return Response.json(
            {
                "blob_id": blob_id,
                "version": version,
                "offset": offset,
                "nbytes": len(request.body),
            }
        )

    async def _h_blob_write(self, request: Request, client: str, span) -> Response:
        blob_id = int(request.params["blob_id"])
        offset = request.query_int("offset")
        if offset is None:
            raise HttpError(400, "write requires an offset query parameter")
        if not request.body:
            raise HttpError(400, "write body must not be empty")
        version, _, _ = await self.engine.run(
            self.blobseer.update(
                client, blob_id, Payload(request.body), offset, parent=span
            )
        )
        return Response.json(
            {"blob_id": blob_id, "version": version, "offset": offset}
        )

    async def _h_blob_read(self, request: Request, client: str, span) -> Response:
        blob_id = int(request.params["blob_id"])
        version = request.query_int("version")
        record, _ps = self.service.version_manager.resolve(blob_id, version)
        offset = request.query_int("offset", 0)
        length = request.query_int("length")
        if length is None:
            length = max(0, record.size - offset)
        _version, data = await self.engine.run(
            self.blobseer.read(
                client,
                blob_id,
                offset,
                length,
                version=record.version,
                parent=span,
            )
        )
        return Response(
            status=200,
            body=data if data is not None else b"",
            headers={
                "X-Blob-Version": str(record.version),
                "X-Blob-Size": str(record.size),
            },
        )

    async def _h_blob_stat(self, request: Request, client: str, span) -> Response:
        blob_id = int(request.params["blob_id"])
        version = request.query_int("version")
        record, page_size = self.service.version_manager.resolve(
            blob_id, version
        )
        return Response.json(
            {
                "blob_id": blob_id,
                "version": record.version,
                "size": record.size,
                "page_size": page_size,
                "kind": record.kind,
            }
        )

    # -- handlers: file plane ------------------------------------------------

    async def _h_fs_create(self, request: Request, client: str, span) -> Response:
        path = request.params["path"]
        page_size = request.query_int(
            "page_size", self.service.config.page_size
        )
        overwrite = request.query.get("overwrite", "") in ("1", "true")
        blob_id = self.service.create_blob(page_size)
        await self.engine.run(
            self.bsfs.create_file(
                client, path, blob_id, page_size, overwrite=overwrite, parent=span
            )
        )
        if request.body:
            await self.engine.run(
                self.bsfs.append_file(
                    client, path, Payload(request.body), parent=span
                )
            )
        return Response.json({"path": path, "blob_id": blob_id}, status=201)

    async def _h_fs_append(self, request: Request, client: str, span) -> Response:
        path = request.params["path"]
        if not request.body:
            raise HttpError(400, "append body must not be empty")
        version = await self.engine.run(
            self.bsfs.append_file(
                client, path, Payload(request.body), parent=span
            )
        )
        return Response.json(
            {"path": path, "version": version, "nbytes": len(request.body)}
        )

    async def _h_fs_read(self, request: Request, client: str, span) -> Response:
        path = request.params["path"]
        size = self.namespace.get_status(path).size
        offset = request.query_int("offset", 0)
        length = request.query_int("length")
        if length is None:
            length = max(0, size - offset)
        length = max(0, min(length, size - offset))
        if length == 0:
            return Response(status=200, body=b"", headers={"X-File-Size": str(size)})
        _version, data = await self.engine.run(
            self.bsfs.read_file(client, path, offset, length, parent=span)
        )
        return Response(
            status=200,
            body=data if data is not None else b"",
            headers={"X-File-Size": str(size)},
        )

    async def _h_fs_stat(self, request: Request, client: str, span) -> Response:
        status = self.namespace.get_status(request.params["path"])
        return Response.json(_status_doc(status))

    async def _h_fs_list(self, request: Request, client: str, span) -> Response:
        entries = self.namespace.list_dir(request.params["path"])
        return Response.json({"entries": [_status_doc(s) for s in entries]})

    async def _h_fs_mkdirs(self, request: Request, client: str, span) -> Response:
        self.namespace.mkdirs(request.params["path"])
        return Response.json({"path": request.params["path"]}, status=201)

    async def _h_fs_delete(self, request: Request, client: str, span) -> Response:
        recursive = request.query.get("recursive", "") in ("1", "true")
        removed = await self.engine.run(
            self.bsfs.delete(
                client, request.params["path"], recursive, parent=span
            )
        )
        if removed is None:
            raise HttpError(404, f"no such path {request.params['path']!r}")
        return Response.json({"deleted": request.params["path"]})

    async def _h_fs_rename(self, request: Request, client: str, span) -> Response:
        src, dst = request.query.get("src"), request.query.get("dst")
        if not src or not dst:
            raise HttpError(400, "rename requires src and dst")
        await self.engine.run(self.bsfs.rename(client, src, dst, parent=span))
        return Response.json({"src": src, "dst": dst})


#: prefix -> {method: handler suffix} for the file plane
_FS_ROUTES = {
    "/fs/files": {
        "POST": "fs_create",
        "GET": "fs_read",
        "DELETE": "fs_delete",
    },
    "/fs/append": {"POST": "fs_append"},
    "/fs/stat": {"GET": "fs_stat"},
    "/fs/list": {"GET": "fs_list"},
    "/fs/mkdirs": {"POST": "fs_mkdirs"},
}


def _status_doc(status) -> dict:
    return {
        "path": status.path,
        "is_directory": status.is_directory,
        "size": status.size,
    }


#: base size of a connection's receive buffer; a body that does not fit
#: it grows it as the body arrives, to at most exactly that request, and
#: it shrinks back once the request is consumed
_RECV_BUFFER = 32 * 1024


class _NeedBytes:
    """What a parked request yields to its connection: resume me after
    the next read."""

    __slots__ = ()

    def __await__(self):
        yield self


_NEED_BYTES = _NeedBytes()


class HttpConnection(asyncio.BufferedProtocol):
    """One client connection: its receive buffer, its reader and its
    requests, driven inline from the transport's callbacks.

    The transport ``recv_into``s one reusable buffer, so a read makes no
    ``bytes`` object of its own, and the connection is the reader
    :func:`read_request` parses from: :meth:`readuntil` and
    :meth:`readexactly` keep ``asyncio.StreamReader``'s exception
    contract. Each request is one :meth:`_serve_one` coroutine, stepped
    with ``send(None)``: it runs until it has written its reply, or
    yields :data:`_NEED_BYTES` and resumes at the next
    :meth:`buffer_updated`. So the requests a read brought in are
    answered in order, in the callback that read them, with no task,
    future or loop turn per request. A transport whose write buffer
    passes its high-water mark pauses reading until it drains, which
    bounds what a client that does not read its replies can queue.

    Memory follows the bytes a client has sent, not the sizes it
    declares: the buffer is allocated at the first read, and a body
    larger than it grows it only when it is full, at most doubling what
    it holds, so a connection holds at most the base size or twice the
    bytes received of its request.
    """

    def __init__(self, server: BlobServer) -> None:
        self._server = server
        self.transport = None
        self._client = ""
        #: allocated at the first read
        self._buf = bytearray()
        self._view = memoryview(self._buf)
        #: the unconsumed bytes are ``_buf[_start:_end]``
        self._start = self._end = 0
        #: bytes a parked :meth:`readexactly` wants from ``_start``
        self._owed = 0
        self._eof = False
        #: the request being served, parked while it waits for bytes
        self._request = None
        #: reading is paused until the transport's write buffer drains
        self._paused = False
        self._closing = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self._server
        server._conns.add(self)
        server._c_conns.inc()
        self._client = f"http-{next(server._conn_ids)}"
        if server._stopped:
            self._close()

    def connection_lost(self, exc) -> None:
        self._closing = True
        if self._request is not None:
            self._request.close()
            self._request = None
        self._server._forget(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == len(self._buf):
            # compact to the base size, or grow with an owed body's
            # arrival, never past the rest of its request
            held = self._end - self._start
            self._rebase(max(_RECV_BUFFER, min(self._owed, 2 * held)))
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        self._pump()
        # keep the transport: the connection closes it once it has answered
        return True

    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if not self._eof:
            self.transport.resume_reading()
        # on the next loop turn: the transport calls this from its write
        # callback, which reports the connection lost itself once its
        # buffer is empty, so a request served here that closes the
        # connection would have it reported lost twice
        asyncio.get_running_loop().call_soon(self._pump)

    # -- requests ------------------------------------------------------------

    def _pump(self) -> None:
        """Serve what the buffer holds, until the next request needs
        bytes, the write buffer fills or the connection closes."""
        while not (self._paused or self._closing):
            request = self._request
            if request is None:
                if self._start == self._end and not self._eof:
                    break  # the next read starts the next request
                request = self._request = self._serve_one()
            try:
                parked = request.send(None)
            except StopIteration as served:
                self._request = None
                if not served.value:
                    self._close()
                continue
            if parked is not _NEED_BYTES:
                self._close()
                raise RuntimeError(
                    f"a request awaited {parked!r}; only the connection's "
                    f"bytes may suspend it"
                )
            break
        if self._server._stopped and not (self._paused or self._closing):
            # a stopping server waits for no request's bytes
            self._close()

    async def _serve_one(self) -> bool:
        """Read, run and answer one request; False closes the connection."""
        server = self._server
        try:
            # looked up at call time, so a wrapper installed on the
            # module (the benchmark's traced server) sees every request
            request = await read_request(self, server._max_body)
        except HttpError as err:
            self.transport.write(
                Response.error(err.status, err.message).encode(False)
            )
            return False
        if request is None:
            return False
        response = await server._dispatch(request, self._client)
        keep = request.keep_alive and not server._stopped
        self.transport.write(response.encode(keep))
        return keep

    def _close(self) -> None:
        self._closing = True
        self.transport.close()

    # -- the reader read_request parses from ---------------------------------

    async def readuntil(self, separator: bytes) -> bytes:
        """The bytes up to and including *separator*. Raises
        ``IncompleteReadError`` carrying what was left at EOF, and
        ``LimitOverrunError`` once :data:`MAX_HEADER_BYTES` are
        buffered without it."""
        seen = 0
        while True:
            start = self._start
            at = self._buf.find(separator, start + seen, self._end)
            if at >= 0:
                return self._take(at + len(separator) - start)
            held = self._end - start
            if held >= MAX_HEADER_BYTES:
                raise asyncio.LimitOverrunError(
                    "no separator within the head limit", held
                )
            if self._eof:
                raise asyncio.IncompleteReadError(self._take(held), None)
            seen = max(0, held - len(separator) + 1)
            await _NEED_BYTES

    async def readexactly(self, n: int) -> bytes:
        """Exactly *n* bytes; ``IncompleteReadError`` carrying what was
        left at EOF. While it waits, :meth:`get_buffer` grows a full
        buffer toward *n*."""
        while self._end - self._start < n:
            if self._eof:
                self._owed = 0
                raise asyncio.IncompleteReadError(
                    self._take(self._end - self._start), n
                )
            self._owed = n
            await _NEED_BYTES
        self._owed = 0
        return self._take(n)

    def _take(self, n: int) -> bytes:
        """Consume *n* buffered bytes. An emptied buffer restarts at its
        front, at its base size."""
        start = self._start
        data = bytes(self._view[start:start + n])
        start += n
        if start == self._end:
            self._start = self._end = 0
            if len(self._buf) > _RECV_BUFFER:
                self._rebase(_RECV_BUFFER)
        else:
            self._start = start
        return data

    def _rebase(self, size: int) -> None:
        """Move the unconsumed bytes to the front of a fresh buffer of
        *size* (the transport may still hold a view of the old one)."""
        held = self._end - self._start
        buf = bytearray(size)
        buf[:held] = self._view[self._start:self._end]
        self._buf, self._view = buf, memoryview(buf)
        self._start, self._end = 0, held


class ServerThread:
    """Run a :class:`BlobServer` on a dedicated event-loop thread.

    The synchronous harnesses (the tests) need a server they can start,
    hit over real sockets, and stop from ordinary blocking code. A
    failure of the loop thread surfaces in the call that waits for it:
    :meth:`start` for a boot that failed, :meth:`stop` for anything
    after, and :meth:`stop` raises when the thread outlives its timeout.
    """

    def __init__(self, server: BlobServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: what the loop thread raised, until a caller has seen it
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Boot the loop thread; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self._run, name="blob-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        error, self._error = self._error, None
        if error is not None:
            raise RuntimeError("server failed to start") from error
        return self.server.host, self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop from any thread (idempotent). Re-raises what
        the loop thread raised; ``RuntimeError`` if it is still running
        *timeout* seconds on."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)
        if self._thread is None:
            return
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"server did not stop within {timeout:g}s")
        error, self._error = self._error, None
        if error is not None:
            raise error

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start/stop
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

"""A small handwritten HTTP/1.1 layer.

No web framework and no new dependencies: the front-end needs exactly
request parsing (request line, headers, a ``Content-Length`` body),
keep-alive, and response writing, in the style of ucondb's handwritten
``UCon_blob_server`` loop. The messages live here and the connection
(its buffer, pipelining, backpressure) is
:class:`~repro.server.app.HttpConnection`, so both are testable without
sockets: the parser reads from any object with
``asyncio.StreamReader``'s ``readuntil``/``readexactly`` contract — the
connection, or a stream reader fed directly.

Limits are deliberate: a request line/header block over
``MAX_HEADER_BYTES`` or a body over ``max_body`` is rejected rather
than buffered — a long-running server must bound per-connection memory.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

#: request line + header block ceiling (per request)
MAX_HEADER_BYTES = 16 * 1024
#: default body ceiling; the app overrides per instance
DEFAULT_MAX_BODY = 64 * 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    416: "Range Not Satisfiable",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server refuses; becomes a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    #: decoded path (no query string)
    path: str
    #: raw query dict: name -> first value
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool = True
    #: route captures filled by the router (e.g. blob id, fs path)
    params: Dict[str, str] = field(default_factory=dict)

    def query_int(
        self, name: str, default: Optional[int] = None
    ) -> Optional[int]:
        """An integer query parameter, 400 on garbage."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be an integer")


@dataclass(slots=True)
class Response:
    """One response to serialize; ``body`` is always materialized."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/octet-stream"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, doc, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(doc) + "\n").encode(),
            content_type="application/json",
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    def encode(self, keep_alive: bool) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def read_request(
    reader, max_body: int = DEFAULT_MAX_BODY
) -> Optional[Request]:
    """Parse one request off *reader*.

    Returns ``None`` on a clean EOF before any byte of a new request
    (the peer closed a keep-alive connection). Raises :class:`HttpError`
    on malformed or over-limit input — the caller answers it and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        # a field name is a token: no whitespace before the colon, and
        # none in front (obsolete line folding) (RFC 9112 §5.1)
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    # the common target is a bare path: no query to parse, nothing to
    # decode (urlsplit caches its answer per target)
    split = urlsplit(target)
    path, query = split.path, {}
    if "%" in path:
        path = unquote(path)
    if split.query:
        query = {
            name: values[0]
            for name, values in parse_qs(
                split.query, keep_blank_values=True
            ).items()
        }

    # a Transfer-Encoding beside a Content-Length would frame the body
    # two ways (RFC 9112 §6.1): refuse it either way
    if headers.get("transfer-encoding"):
        raise HttpError(400, "chunked requests are not supported")
    body = b""
    length_raw = headers.get("content-length")
    if length_raw is not None:
        # ASCII digits only: int() would also take a sign, underscores
        # and non-ASCII digits (RFC 9112 §6.3)
        if not (length_raw.isascii() and length_raw.isdigit()):
            raise HttpError(400, f"bad Content-Length {length_raw!r}")
        length = int(length_raw)
        if length > max_body:
            raise HttpError(413, f"body of {length} bytes over limit {max_body}")
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:
                raise HttpError(400, "connection closed mid-body") from exc

    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return Request(
        method=method.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )

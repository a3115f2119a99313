"""Unit tests for the handwritten HTTP/1.1 layer — no sockets: the
parser reads from an ``asyncio.StreamReader`` fed directly."""

import asyncio

import pytest

from repro.server.http import HttpError, Response, read_request


def parse_http_response(raw: bytes):
    """Split a fully buffered response into (status, headers, body)
    (responses here always carry ``Content-Length``)."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rest


def parse(raw: bytes, max_body: int = 1 << 20):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(go())


class TestRequestParsing:
    def test_simple_get(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/healthz"
        assert req.body == b""
        assert req.keep_alive

    def test_query_and_percent_decoding(self):
        req = parse(
            b"GET /blob/7?version=3&offset=0&length=10 HTTP/1.1\r\n\r\n"
        )
        assert req.query == {"version": "3", "offset": "0", "length": "10"}
        assert req.query_int("version") == 3
        assert req.query_int("missing", 9) == 9
        req2 = parse(b"GET /fs/stat/a%20b HTTP/1.1\r\n\r\n")
        assert req2.path == "/fs/stat/a b"

    def test_body_via_content_length(self):
        req = parse(
            b"POST /blob/1/append HTTP/1.1\r\n"
            b"Content-Length: 5\r\n\r\nhello"
        )
        assert req.body == b"hello"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head_is_an_error(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET /x HTTP/1.1\r\nHost")
        assert err.value.status == 400

    def test_truncated_body_is_an_error(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert err.value.status == 400

    def test_body_over_limit_is_413(self):
        with pytest.raises(HttpError) as err:
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"a" * 100,
                max_body=10,
            )
        assert err.value.status == 413

    def test_bad_content_length(self):
        for raw in (b"Content-Length: nope", b"Content-Length: -5"):
            with pytest.raises(HttpError) as err:
                parse(b"POST /x HTTP/1.1\r\n" + raw + b"\r\n\r\n")
            assert err.value.status == 400

    def test_conflicting_content_lengths_are_400(self):
        # the last header used to win: 5 bytes were read as the body
        with pytest.raises(HttpError) as err:
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 5\r\n\r\nhello"
            )
        assert err.value.status == 400

    def test_repeated_equal_content_lengths_are_one(self):
        req = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n"
            b"Content-Length: 5\r\n\r\nhello"
        )
        assert req.body == b"hello"

    def test_content_length_with_underscore_is_400(self):
        # int() reads "1_0" as 10
        with pytest.raises(HttpError) as err:
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
                + b"a" * 10
            )
        assert err.value.status == 400

    def test_content_length_with_sign_is_400(self):
        # int() reads "+4" as 4
        with pytest.raises(HttpError) as err:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd")
        assert err.value.status == 400

    def test_whitespace_before_the_colon_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello")
        assert err.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as err:
            parse(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert err.value.status == 400

    def test_chunked_beside_a_content_length_is_400(self):
        # the Content-Length used to win: "abc" was read as the body
        with pytest.raises(HttpError) as err:
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Transfer-Encoding: chunked\r\n\r\nabc"
            )
        assert err.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            parse(b"NONSENSE\r\n\r\n")

    def test_unsupported_protocol(self):
        with pytest.raises(HttpError):
            parse(b"GET /x SPDY/99\r\n\r\n")

    def test_bad_query_int_is_400(self):
        req = parse(b"GET /x?offset=zz HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as err:
            req.query_int("offset")
        assert err.value.status == 400

    def test_keep_alive_rules(self):
        assert parse(b"GET /x HTTP/1.1\r\n\r\n").keep_alive
        assert not parse(
            b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
        ).keep_alive
        assert not parse(b"GET /x HTTP/1.0\r\n\r\n").keep_alive
        assert parse(
            b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ).keep_alive


class TestResponse:
    def test_roundtrip_through_client_parser(self):
        resp = Response.json({"ok": 1}, status=201)
        status, headers, body = parse_http_response(resp.encode(True))
        assert status == 201
        assert headers["content-type"] == "application/json"
        assert body == b'{"ok": 1}\n'
        assert headers["content-length"] == str(len(body))

    def test_error_body_carries_status(self):
        resp = Response.error(404, "no such blob")
        assert resp.status == 404
        assert b"no such blob" in resp.body

    def test_connection_header_tracks_keep_alive(self):
        resp = Response(status=200, body=b"x")
        assert b"Connection: keep-alive" in resp.encode(True)
        assert b"Connection: close" in resp.encode(False)

    def test_extra_headers_emitted(self):
        resp = Response(status=200, body=b"d", headers={"X-Blob-Version": "4"})
        assert b"X-Blob-Version: 4" in resp.encode(True)

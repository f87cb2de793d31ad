"""The HTTP/1.1 framing of the service, checked with raw sockets.

The server parses requests and the cluster router's ``http_call`` reads
responses with the same two helpers (``read_message`` and
``encode_message``), so these tests pin the bytes both sides rely on:
the 400s of malformed requests, query-string options, the headers
every response carries, and when a kept-alive connection closes.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.cluster.router import http_call
from repro.engine import set_default_engine
from repro.service import BackgroundServer
from repro.service import server as server_module


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture(scope="module")
def port():
    with BackgroundServer(workers=1) as server:
        yield server.port


def exchange(port: int, data: bytes) -> tuple[int, dict[str, str], bytes]:
    """Send raw bytes, read until the server closes: ``(status, headers,
    body)``.  Every response must frame itself and close."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("ascii").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    assert headers["content-length"] == str(len(body))
    assert headers["connection"] == "close"
    return int(status_line.split()[1]), headers, body


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    """One response from a socket file, read by its ``Content-Length``."""
    status_line = stream.readline().decode("ascii")
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("ascii").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def request(method: str, target: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body


def error_of(body: bytes) -> str:
    payload = json.loads(body)
    assert payload["kind"] == "error" and payload["code"] == "bad-request"
    return payload["error"]


class TestMalformedRequests:
    def test_malformed_request_line(self, port):
        status, _, body = exchange(port, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert error_of(body) == "malformed request line"

    def test_body_must_be_an_object(self, port):
        status, _, body = exchange(port, request("POST", "/count", b"[]"))
        assert status == 400
        assert error_of(body) == "request body must be a JSON object"

    def test_invalid_json(self, port):
        status, _, body = exchange(port, request("POST", "/count", b"{nope"))
        assert status == 400
        assert error_of(body).startswith("bad request:")

    def test_oversized_body_rejected_before_it_is_sent(self, port):
        head = (
            "POST /count HTTP/1.1\r\n"
            f"Content-Length: {32 * 1024 * 1024 + 1}\r\n\r\n"
        ).encode("ascii")
        status, _, body = exchange(port, head)  # no body bytes follow
        assert status == 400
        assert error_of(body) == "request body too large"


class TestConnectionLifetime:
    """A connection carries requests until the client closes it or asks
    to; broken framing closes it unasked (as the malformed-line and
    oversized-body cases above, which send no ``Connection`` header)."""

    def test_two_requests_share_one_connection(self, port):
        keep_alive = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(keep_alive)
                status, headers, body = read_response(stream)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["kind"] == "healthz"

    def test_http_1_0_request_is_answered_then_closed(self, port):
        status, _, body = exchange(port, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200
        assert json.loads(body)["kind"] == "healthz"

    def test_bad_content_length_closes(self, port):
        status, _, body = exchange(
            port, b"POST /count HTTP/1.1\r\nContent-Length: 2x\r\n\r\n{}",
        )
        assert status == 400
        assert error_of(body) == "bad Content-Length '2x'"

    def test_chunked_body_is_rejected_and_closed(self, port):
        chunked = (
            b"POST /count HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        status, _, body = exchange(port, chunked)
        assert status == 400
        assert error_of(body) == (
            "chunked request bodies are not supported; send Content-Length"
        )

    def test_end_of_stream_before_a_request_is_a_clean_close(self, port):
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # no 400 for a request never sent

    def test_stalled_request_is_closed_unanswered(self, port, monkeypatch):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"POST /count HTTP/1.1\r\nContent-Length: 10\r\n\r\n{")
            started = time.monotonic()
            assert sock.recv(65536) == b""
            assert time.monotonic() - started < 3


class TestRoutedResponses:
    def test_query_string_fills_missing_fields_and_body_wins(self, port):
        status, _, body = exchange(port, request("GET", "/traces?limit=x"))
        assert status == 400
        assert error_of(body) == "'limit' must be an integer, got 'x'"
        status, _, body = exchange(
            port, request("GET", "/traces?limit=x", b'{"limit": 2}'),
        )
        assert status == 200
        assert json.loads(body)["kind"] == "traces"

    def test_routed_response_carries_trace_header(self, port):
        status, headers, body = exchange(port, request("GET", "/healthz"))
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert headers["x-repro-trace"]
        assert json.loads(body)["kind"] == "healthz"

    def test_metrics_is_prometheus_text(self, port):
        status, headers, body = exchange(port, request("GET", "/metrics"))
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert b"# TYPE" in body

    def test_http_call_decodes_json_and_text(self, port):
        async def calls():
            return await asyncio.gather(
                http_call("127.0.0.1", port, "GET", "/healthz"),
                http_call("127.0.0.1", port, "GET", "/metrics"),
                http_call("127.0.0.1", port, "GET", "/no-such-route"),
            )

        healthz, metrics, unknown = asyncio.run(calls())
        assert healthz[0] == 200 and healthz[1]["kind"] == "healthz"
        assert metrics[0] == 200 and isinstance(metrics[1], str)
        assert "# TYPE" in metrics[1]
        assert unknown[0] == 404 and unknown[1]["code"] == "unknown-route"

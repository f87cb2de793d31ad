"""The HTTP/1.1 framing of the service, checked with raw sockets.

The server parses requests and the cluster router's ``http_call`` reads
responses with the same two helpers (``read_message`` and
``encode_message``), so these tests pin the bytes both sides rely on:
the 400s of malformed requests, query-string options, and the headers
every response carries.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.cluster.router import http_call
from repro.engine import set_default_engine
from repro.service import BackgroundServer


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


def request(method: str, target: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
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

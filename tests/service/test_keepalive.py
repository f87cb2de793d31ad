"""Keep-alive on every hop: the client's idle connections, the router's
pooled ``http_call``, and ``ServiceServer.stop()`` with connections open.

Connections are counted where they are opened: ``HTTPConnection.connect``
for the client, accepts of a stub asyncio server for ``http_call``.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster.router import http_call
from repro.engine import set_default_engine
from repro.errors import ServiceError
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.homs import count_homomorphisms_brute
from repro.service import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer, encode_message, read_message


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture
def connects(monkeypatch) -> list:
    """Every ``HTTPConnection.connect`` made while the test runs."""
    opened: list = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        opened.append(self)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    return opened


class TestServiceClient:
    def test_sequential_calls_reuse_one_connection(self, connects):
        with BackgroundServer(workers=1) as server:
            client = ServiceClient(port=server.port)
            for _ in range(10):
                assert client.health()["kind"] == "health"
            client.close()
        assert len(connects) == 1

    def test_threads_sharing_one_client_get_exact_counts(self, connects):
        host = random_graph(12, 0.4, seed=5)
        patterns = [path_graph(n) for n in (2, 3, 4)] + [
            cycle_graph(n) for n in (3, 4, 5)
        ]
        expected = [count_homomorphisms_brute(p, host) for p in patterns]
        results: list[list[int]] = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BackgroundServer(workers=2) as server:
                client = ServiceClient(port=server.port)
                client.register_graph("shared", host)

                def work(slot: int) -> None:
                    for pattern in patterns * 3:
                        results[slot].append(client.count(pattern, "shared")["count"])

                threads = [
                    threading.Thread(target=work, args=(slot,)) for slot in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                client.close()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected * 3] * 8
        assert len(connects) <= 8  # one per concurrent caller at most

    def test_call_after_a_restart_on_the_same_port(self):
        with BackgroundServer(workers=1) as server:
            port = server.port
            client = ServiceClient(port=port)
            client.health()  # leaves an idle connection the stop closes
        with BackgroundServer(workers=1, port=port):
            assert client.health()["kind"] == "health"
            client.close()

    def test_refused_fresh_connection_raises(self):
        with BackgroundServer(workers=1) as server:
            client = ServiceClient(port=server.port)
            client.health()
        # The idle connection is stale and its fresh retry is refused.
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()  # a fresh connection, refused outright


def timed_stop(server: BackgroundServer) -> tuple[float, threading.Thread]:
    thread = server._thread
    started = time.monotonic()
    server.stop()
    return time.monotonic() - started, thread


class TestStop:
    """``stop()`` closes idle and half-read connections at once, so it
    never waits on a client that keeps its connection open."""

    def test_stop_with_an_idle_keep_alive_client(self):
        server = BackgroundServer(workers=1)
        server._stop_timeout = 5.0
        server.start()
        client = ServiceClient(port=server.port)
        client.health()
        elapsed, thread = timed_stop(server)
        client.close()
        assert elapsed < 2.0
        assert not thread.is_alive()

    def test_stop_with_a_half_sent_request(self):
        server = BackgroundServer(workers=1)
        server._stop_timeout = 5.0
        server.start()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"POST /count HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            time.sleep(0.1)  # the server is inside the body read
            elapsed, thread = timed_stop(server)
        assert elapsed < 2.0
        assert not thread.is_alive()

    def test_in_flight_request_is_answered_then_closed(self):
        class SlowService:
            async def start(self) -> None:
                pass

            async def stop(self) -> None:
                pass

            async def handle(self, method, path, body, client_trace=None):
                await asyncio.sleep(0.3)
                return 200, {"kind": "slow"}, None

        async def scenario():
            server = ServiceServer(SlowService())
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /slow HTTP/1.1\r\n\r\n")
            await writer.drain()
            await asyncio.sleep(0.1)  # the request is being answered
            stopping = asyncio.create_task(server.stop())
            response = await read_message(reader)
            end = await reader.read()
            await stopping
            writer.close()
            return response, end

        (fields, headers, body), end = asyncio.run(scenario())
        assert fields[1] == "200" and body == b'{"kind": "slow"}'
        assert headers["connection"] == "close"
        assert end == b""


@contextlib.asynccontextmanager
async def stub_server(close_after_response: bool = False):
    """An HTTP stub that counts the connections it accepts.  ``/hang``
    is never answered: the stub waits for the caller to close.  With
    ``close_after_response`` it closes each connection after one
    keep-alive response, as a server closing an idle connection does."""
    state = SimpleNamespace(
        accepted=0, handlers=[], hanging=asyncio.Event(), hung_up=asyncio.Event(),
    )

    async def handle(reader, writer):
        state.accepted += 1
        state.handlers.append(asyncio.current_task())
        try:
            while (message := await read_message(reader)) is not None:
                path = message[0][1]
                if path == "/hang":
                    state.hanging.set()
                    await reader.read()
                    state.hung_up.set()
                    break
                writer.write(encode_message("HTTP/1.1 200 OK", {"path": path}))
                await writer.drain()
                if close_after_response:
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1], state
    finally:
        server.close()
        await asyncio.wait_for(asyncio.gather(*state.handlers), 5)


def close_pool(pool: list) -> None:
    for _, writer in pool:
        writer.close()


class TestPooledHttpCall:
    def test_sequential_pooled_calls_use_one_connection(self):
        async def scenario():
            pool: list = []
            async with stub_server() as (port, state):
                replies = [
                    await http_call("127.0.0.1", port, "GET", f"/n{i}", pool=pool)
                    for i in range(5)
                ]
                idle = len(pool)
                close_pool(pool)
            return replies, idle, state.accepted

        replies, idle, accepted = asyncio.run(scenario())
        assert replies == [(200, {"path": f"/n{i}"}) for i in range(5)]
        assert idle == 1
        assert accepted == 1

    def test_connection_closed_by_peer_is_retried_fresh(self):
        async def scenario():
            pool: list = []
            async with stub_server(close_after_response=True) as (port, state):
                await http_call("127.0.0.1", port, "GET", "/a", pool=pool)
                pooled = len(pool)
                reply = await http_call("127.0.0.1", port, "GET", "/b", pool=pool)
                close_pool(pool)
            return pooled, reply, state.accepted

        pooled, reply, accepted = asyncio.run(scenario())
        assert pooled == 1  # the stub's response said keep-alive
        assert reply == (200, {"path": "/b"})
        assert accepted == 2

    def test_cancelled_call_closes_its_connection(self):
        async def scenario():
            pool: list = []
            async with stub_server() as (port, state):
                await http_call("127.0.0.1", port, "GET", "/warm", pool=pool)
                call = asyncio.create_task(
                    http_call("127.0.0.1", port, "GET", "/hang", pool=pool),
                )
                await asyncio.wait_for(state.hanging.wait(), 5)
                call.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await call
                idle = len(pool)
                await asyncio.wait_for(state.hung_up.wait(), 5)
            return idle, state.accepted

        idle, accepted = asyncio.run(scenario())
        assert idle == 0
        assert accepted == 1  # the cancelled call had reused the warm one

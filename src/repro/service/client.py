"""A stdlib Python client for the counting service.

Wraps ``http.client`` (blocking, keep-alive: each call reuses one of the
client's idle connections or opens one, so threads sharing a client
never share a connection) around the wire format of
:mod:`repro.service.wire`.  Every counting call constructs the canonical
:mod:`repro.api.tasks` spec and sends its exact wire payload, so the
client, the CLI, and the server all speak one encoding; rich objects
(``Graph``, ``KnowledgeGraph``, ``KgQuery``) and raw spec dicts are
accepted interchangeably.

Error responses carry ``{"kind": "error", "error": msg, "code": code}``;
the raised :class:`ServiceError` exposes both ``status`` and ``code``.
"""

from __future__ import annotations

import http.client
import json
from typing import Mapping

from repro.errors import ServiceError
from repro.graphs.graph import Graph
from repro.obs.trace import current_trace_id
from repro.service.wire import kg_to_spec, task_to_wire

__all__ = ["ServiceClient", "ServiceError"]


def _as_task_target(value):
    """Dataset name, rich object, or raw spec — as a task target."""
    if isinstance(value, (str, Graph, Mapping)) or hasattr(value, "triples"):
        return value
    raise ServiceError(f"cannot encode target {type(value).__name__}")


def _as_graph_spec(value) -> dict:
    from repro.service.wire import graph_to_spec

    if isinstance(value, Graph):
        return graph_to_spec(value)
    if isinstance(value, Mapping):
        return dict(value)
    raise ServiceError(
        f"expected a Graph or a graph spec, got {type(value).__name__}",
    )


class ServiceClient:
    """Talk to a running ``repro serve`` instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Trace id of the most recent response (the server's
        #: ``X-Repro-Trace`` header), for correlating with ``/traces``.
        self.last_trace_id: str | None = None
        # Idle keep-alive connections.  A call pops one (list.pop and
        # append are atomic, so threads never share a connection) and
        # puts it back after a complete response.
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle connections; a later call opens a fresh one.
        A client that is dropped closes them too."""
        while self._idle:
            self._idle.pop().close()

    __del__ = close

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request_raw(
        self, method: str, path: str, payload: dict | None = None,
    ) -> tuple[int, bytes]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        trace_id = current_trace_id()
        if trace_id is not None:
            # Propagate the caller's trace: the server's root span
            # adopts this id, so one trace follows the request across
            # the wire (client span tree + server /traces entries).
            headers["X-Repro-Trace"] = trace_id
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout,
            )
        reused = connection.sock is not None
        try:
            while True:
                try:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    # RemoteDisconnected included.  On a reused connection
                    # this is the server closing it while idle (a stop or
                    # restart) before any response byte: the request was
                    # not processed, so one fresh connection decides.
                    if not reused:
                        raise
                    connection.close()
                    reused = False
            data = response.read()
            status = response.status
            self.last_trace_id = response.getheader("X-Repro-Trace")
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {error}",
            ) from error
        self._idle.append(connection)
        return status, data

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        status, data = self._request_raw(method, path, payload)
        try:
            decoded = json.loads(data) if data else {}
        except ValueError as error:
            raise ServiceError(f"non-JSON response: {error}", status) from error
        if status != 200:
            raise ServiceError(
                decoded.get("error", f"HTTP {status}"),
                status,
                code=decoded.get("code"),
            )
        return decoded

    def request_text(self, method: str, path: str) -> str:
        """A non-JSON GET (the Prometheus ``/metrics`` exposition)."""
        status, data = self._request_raw(method, path)
        text = data.decode("utf-8", "replace")
        if status != 200:
            code = None
            try:
                decoded = json.loads(text)
                message = decoded.get("error", f"HTTP {status}")
                code = decoded.get("code")
            except ValueError:
                message = f"HTTP {status}"
            raise ServiceError(message, status, code=code)
        return text

    def _post(self, path: str, payload: dict) -> dict:
        return self.request("POST", path, payload)

    def _post_task(self, path: str, factory) -> dict:
        """Build the canonical spec and POST its exact wire payload.

        Spec construction validates eagerly (queries parse, graph specs
        decode); a rejected input raises the same 400-coded
        :class:`ServiceError` the server would have answered with, just
        without the round trip.
        """
        from repro.errors import ReproError

        try:
            task = factory() if callable(factory) else factory
            payload = task_to_wire(task)
        except ServiceError:
            raise
        except ReproError as error:
            raise ServiceError(str(error), 400, code=error.code) from error
        return self._post(path, payload)

    def probe(self, method: str, path: str) -> tuple[int, dict]:
        """Like :meth:`request` but non-raising on HTTP errors: returns
        ``(status, decoded_payload)``.  Health endpoints answer 503 with
        a structured verdict, not an error payload — callers inspect the
        status instead of catching.  Transport failures still raise."""
        status, data = self._request_raw(method, path)
        try:
            decoded = json.loads(data) if data else {}
        except ValueError as error:
            raise ServiceError(f"non-JSON response: {error}", status) from error
        return status, decoded

    def wait_ready(
        self, timeout: float = 30.0, interval: float = 0.05,
    ) -> dict:
        """Poll ``GET /readyz`` until the service is ready.

        Swallows connection errors and 503s until ``timeout`` elapses —
        the canonical replacement for sleep/retry startup loops in tests
        and scripts.  Returns the final readiness payload; raises
        :class:`ServiceError` (code ``not-ready``) on deadline.
        """
        import time as _time

        deadline = _time.monotonic() + timeout
        last: dict | str = "no response yet"
        while True:
            try:
                status, payload = self.probe("GET", "/readyz")
                if status == 200:
                    return payload
                last = payload
            except ServiceError as error:
                last = str(error)
            if _time.monotonic() >= deadline:
                raise ServiceError(
                    f"service at {self.host}:{self.port} not ready "
                    f"after {timeout:g}s: {last}",
                    503,
                    code="not-ready",
                )
            _time.sleep(interval)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/health")

    def healthz(self) -> tuple[int, dict]:
        """Liveness: ``(status, payload)`` — 503 while any probe fails."""
        return self.probe("GET", "/healthz")

    def readyz(self) -> tuple[int, dict]:
        """Readiness: ``(status, payload)`` — 503 until serviceable."""
        return self.probe("GET", "/readyz")

    def slo(self) -> dict:
        """Objective attainment and burn rates (``GET /slo``)."""
        return self.request("GET", "/slo")

    def alerts(self) -> dict:
        """The alert rule engine's current state (``GET /alerts``)."""
        return self.request("GET", "/alerts")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def datasets(self) -> list[dict]:
        return self.request("GET", "/datasets")["datasets"]

    def metrics(self) -> dict:
        """The metrics registry snapshot (``GET /metrics?format=json``)."""
        return self.request("GET", "/metrics?format=json")["metrics"]

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self.request_text("GET", "/metrics")

    def traces(self, limit: int = 20) -> dict:
        """Recent and recent-slow span trees (``GET /traces``)."""
        return self.request("GET", f"/traces?limit={int(limit)}")

    def profile(self) -> dict:
        """The server profiler's snapshot (``GET /profile``)."""
        return self.request("GET", "/profile")["profile"]

    def profile_collapsed(self) -> str:
        """Flame-graph-ready collapsed stacks (``GET /profile?format=collapsed``)."""
        return self.request_text("GET", "/profile?format=collapsed")

    def profile_start(
        self, interval_ms: float = 5.0, keep_idle: bool = False,
    ) -> dict:
        """Start the server's sampling profiler."""
        payload: dict = {"action": "start", "interval_ms": float(interval_ms)}
        if keep_idle:
            payload["keep_idle"] = True
        return self._post("/profile", payload)

    def profile_stop(self) -> dict:
        """Stop the server's profiler; returns the final snapshot."""
        return self._post("/profile", {"action": "stop"})["profile"]

    def slow_queries(
        self, limit: int = 20, threshold_ms: float | None = None,
    ) -> dict:
        """The server's slow-query log (``GET /slow-queries``).

        Passing ``threshold_ms`` retunes the server's capture threshold.
        """
        path = f"/slow-queries?limit={int(limit)}"
        if threshold_ms is not None:
            path += f"&threshold_ms={float(threshold_ms)}"
        return self.request("GET", path)

    def register_graph(self, name: str, graph) -> dict:
        payload = {"name": name, "graph": _as_graph_spec(graph)}
        return self._post("/register-dataset", payload)["dataset"]

    def register_kg(self, name: str, kg) -> dict:
        spec = kg_to_spec(kg) if hasattr(kg, "triples") else dict(kg)
        return self._post("/register-dataset", {"name": name, "kg": spec})["dataset"]

    def run_task(self, task) -> dict:
        """Run any canonical task spec through ``POST /task``.

        Returns the full result payload (``result_from_wire`` decodes it
        back into a :class:`~repro.api.result.Result`); batches return
        ``{"kind": "result-batch", "results": [...]}``.
        """
        return self._post_task("/task", task)

    def count(self, pattern, target) -> dict:
        """``|Hom(pattern, target)|``; target is a dataset name or a graph."""
        from repro.api.tasks import HomCountTask

        return self._post_task(
            "/count", lambda: HomCountTask(pattern, _as_task_target(target)),
        )

    def count_answers(self, query: str, target) -> dict:
        """Answers of a parsed CQ on a dataset name or inline graph."""
        from repro.api.tasks import AnswerCountTask

        return self._post_task(
            "/count-answers",
            lambda: AnswerCountTask(query, _as_task_target(target)),
        )

    def count_kg_answers(self, kg_query, target) -> dict:
        """Answers of a KG conjunctive query on a KG dataset or inline KG."""
        from repro.api.tasks import KgAnswerCountTask

        return self._post_task(
            "/count-answers",
            lambda: KgAnswerCountTask(kg_query, _as_task_target(target)),
        )

    def wl_dim(self, query: str) -> dict:
        from repro.api.tasks import WlDimensionTask

        return self._post_task("/wl-dim", lambda: WlDimensionTask(query))

    def analyze(self, query: str) -> dict:
        from repro.api.tasks import AnalyzeTask

        return self._post_task("/analyze", lambda: AnalyzeTask(query))

    # ------------------------------------------------------------------
    # dynamic targets
    # ------------------------------------------------------------------
    def target_update(
        self,
        name: str,
        add_edges=(),
        remove_edges=(),
        add_vertices=(),
        remove_vertices=(),
        add_triples=(),
        remove_triples=(),
    ) -> dict:
        """Advance a registered dataset's version by one update batch
        (edge/vertex fields for graph datasets, triple fields for KGs)."""
        payload: dict = {"target": name}
        for field, values in (
            ("add_edges", add_edges),
            ("remove_edges", remove_edges),
            ("add_vertices", add_vertices),
            ("remove_vertices", remove_vertices),
            ("add_triples", add_triples),
            ("remove_triples", remove_triples),
        ):
            values = [list(v) if isinstance(v, (list, tuple)) else v for v in values]
            if values:
                payload[field] = values
        return self._post("/target-update", payload)

    def subscribe(
        self,
        name: str,
        pattern=None,
        query: str | None = None,
        kg_query=None,
        subscription_id: str | None = None,
    ) -> dict:
        """Create a maintained count on dataset ``name`` (exactly one of
        ``pattern`` / ``query`` / ``kg_query``); returns its payload."""
        from repro.service.wire import kg_query_to_spec

        payload: dict = {"target": name}
        if subscription_id is not None:
            payload["id"] = subscription_id
        if pattern is not None:
            payload["pattern"] = _as_graph_spec(pattern)
        elif query is not None:
            payload["query"] = query
        elif kg_query is not None:
            payload["kg_query"] = (
                kg_query_to_spec(kg_query)
                if hasattr(kg_query, "free_variables")
                else dict(kg_query)
            )
        else:
            raise ServiceError("pass a pattern, query, or kg_query to subscribe")
        return self._post("/subscribe", payload)["subscription"]

    def subscriptions(self) -> list[dict]:
        return self.request("GET", "/subscriptions")["subscriptions"]

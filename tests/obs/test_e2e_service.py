"""End-to-end: /metrics counters reconcile with client-observed traffic.

Runs a real loopback server, drives a known mix of requests (distinct
counts, warm repeats, one failure), and checks that the scraped counter
*deltas* match what the client saw.  Deltas, not absolutes: the metrics
registry is process-global and other tests in the same run feed it too.
"""

from __future__ import annotations

import pytest

from repro.engine import set_default_engine
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.obs import span
from repro.obs import profile as _profile
from repro.service import BackgroundServer, ServiceClient, ServiceError


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture
def server():
    with BackgroundServer(workers=2, max_queue=32) as running:
        # readiness gate instead of trusting the startup event alone
        ServiceClient(port=running.port).wait_ready()
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


def metric(snapshot: dict, name: str, **labels) -> float:
    """Sum the samples of ``name`` matching the given label subset."""
    total = 0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            value = sample["value"]
            total += value["count"] if isinstance(value, dict) else value
    return total


class TestMetricsReconcile:
    def test_counters_match_observed_traffic(self, client):
        host = random_graph(12, 0.3, seed=5)
        client.register_graph("hosts", host)
        patterns = [path_graph(3), path_graph(4), cycle_graph(4)]

        before = client.metrics()

        ok = 0
        for _ in range(2):  # second round repeats → engine count-cache hits
            for pattern in patterns:
                response = client.count(pattern, "hosts")
                assert response["kind"] == "count"
                ok += 1
        with pytest.raises(ServiceError) as failure:
            client.count(patterns[0], "no-such-dataset")
        assert failure.value.status == 404
        error_code = failure.value.code
        assert error_code

        after = client.metrics()

        def delta(name, **labels):
            return metric(after, name, **labels) - metric(
                before, name, **labels,
            )

        # Server route counters: every request counted, errors separately.
        # Route labels are the request paths, matching /stats route keys.
        assert delta("repro_server_requests_total", route="/count") == ok + 1
        assert delta(
            "repro_server_errors_total", route="/count", code=error_code,
        ) == 1
        assert delta("repro_server_request_ms", route="/count") == ok + 1

        # Task counter: one hom-count execution per successful request.
        assert delta(
            "repro_tasks_total", kind="hom-count", executor="local",
        ) == ok

        # Scheduler: sequential requests — the first round's jobs ran, the
        # repeat round was answered from cache without a job.
        assert delta("repro_scheduler_requests_total", event="submitted") == ok
        assert delta("repro_scheduler_requests_total", event="executed") == len(patterns)
        assert delta("repro_scheduler_requests_total", event="cached") == len(patterns)
        assert delta("repro_scheduler_wait_ms") == len(patterns)
        assert delta("repro_scheduler_run_ms") == len(patterns)

        # Engine count cache: the repeat round hit once per pattern.
        assert delta(
            "repro_engine_cache_events_total", cache="count", event="hit",
        ) >= len(patterns)

    def test_trace_header_and_traces_endpoint(self, client):
        host = random_graph(8, 0.4, seed=9)
        client.register_graph("traced", host)
        client.count(path_graph(3), "traced")
        trace_id = client.last_trace_id
        assert trace_id

        traces = client.traces(limit=64)
        assert traces["kind"] == "traces"
        ours = [
            trace for trace in traces["recent"]
            if trace.get("trace_id") == trace_id
        ]
        assert len(ours) == 1
        (trace,) = ours
        assert trace["name"] == "server.request"
        assert trace["attrs"]["route"] == "/count"
        assert trace["attrs"]["status"] == 200
        assert trace["duration_ms"] >= 0

    def test_error_payloads_carry_trace_and_stable_code(self, client):
        with pytest.raises(ServiceError) as failure:
            client.request("POST", "/count", {"pattern": "not-a-graph"})
        assert failure.value.status == 400
        assert failure.value.code  # stable repro.errors code, not a message
        assert client.last_trace_id  # error responses are traced too

    def test_client_trace_propagates_to_server_spans(self, client):
        host = random_graph(8, 0.4, seed=21)
        client.register_graph("linked", host)
        with span("client.op") as sp:
            client.count(path_graph(3), "linked")
            client_trace = sp.trace_id
        # the response echoes the id the server worked under — adopted
        # from the X-Repro-Trace request header, not freshly allocated
        assert client.last_trace_id == client_trace

        traces = client.traces(limit=64)
        adopted = [
            trace for trace in traces["recent"]
            if trace.get("trace_id") == client_trace
            and trace["name"] == "server.request"
        ]
        assert len(adopted) == 1
        assert adopted[0]["attrs"]["route"] == "/count"

    def test_slow_request_lands_in_slow_query_log(self, client):
        host = random_graph(14, 0.3, seed=11)
        client.register_graph("slowhost", host)

        response = client.slow_queries(threshold_ms=0.0)
        assert response["kind"] == "slow-queries"
        assert response["threshold_ms"] == 0.0

        client.count(cycle_graph(5), "slowhost")
        request_trace = client.last_trace_id

        log = client.slow_queries(limit=50)
        entries = [
            entry for entry in log["slow_queries"]
            if entry["trace_id"] == request_trace
        ]
        assert len(entries) == 1
        (entry,) = entries
        # the entry alone reconstructs the request: canonical task key,
        # plan explain output, cost breakdown, trace id
        assert entry["kind"] == "hom-count"
        assert entry["task_key"]
        assert entry["backend"]
        assert "task.hom-count" in entry["explain"]
        assert entry["cost"]["total_ms"] >= 0
        assert entry["cost"]["span_count"] >= 1
        assert entry["elapsed_ms"] >= 0

    def test_nan_slow_query_threshold_is_a_400(self, client):
        before = client.slow_queries()["threshold_ms"]
        with pytest.raises(ServiceError) as failure:
            client.request("GET", "/slow-queries?threshold_ms=nan")
        assert failure.value.status == 400
        assert client.slow_queries()["threshold_ms"] == before

    def test_profile_endpoints_roundtrip(self, client):
        baseline = client.profile()
        assert baseline["running"] is False

        started = client.profile_start(interval_ms=1.0)
        try:
            assert started["kind"] == "profile"
            assert started["running"] is True
            assert started["interval_ms"] == 1.0

            client.register_graph(
                "profhost", random_graph(10, 0.3, seed=3),
            )
            for size in (3, 4, 5):
                client.count(path_graph(size), "profhost")
            assert client.profile()["running"] is True
        finally:
            final = client.profile_stop()
        assert final["running"] is False
        assert final["interval_ms"] == 1.0
        assert final["samples"] >= 0
        collapsed = client.profile_collapsed()
        assert isinstance(collapsed, str)
        assert client.profile()["running"] is False
        with _profile._active_lock:
            _profile._active = None  # don't leak state across tests

    def test_prometheus_text_and_stats_snapshot(self, client):
        client.health()
        text = client.metrics_text()
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'repro_server_requests_total{route="/health"}' in text

        stats = client.stats()
        assert stats["kind"] == "stats"  # old fields stay put
        assert "engine" in stats and "scheduler" in stats
        assert "repro_server_requests_total" in stats["metrics"]

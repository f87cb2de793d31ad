"""The full topology end-to-end: router + supervised workers, driven by
an unmodified :class:`ServiceClient`, checked against the brute oracle.

The chaos test is the subsystem's contract: SIGKILL a worker while a
client pool hammers counting routes, and assert *zero* client-visible
failures with every value exact — worker death must cost latency only.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.api import AnswerCountTask, HomCountTask
from repro.cluster import Cluster, ClusterRouter
from repro.graphs import (
    cycle_graph,
    path_graph,
    random_graph,
)
from repro.homs import count_homomorphisms_brute
from repro.obs import registry as metrics_registry
from repro.queries.answers import count_answers_direct
from repro.queries.parser import parse_query
from repro.service.client import ServiceClient
from repro.service.server import CountingService

#: A 2-star with one existential variable: answer counts interpolate.
STAR = "q(x1, x2) :- E(x1, y), E(x2, y)"


@pytest.fixture(scope="module")
def cluster():
    with Cluster(workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(cluster):
    client = ServiceClient(port=cluster.port)
    client.wait_ready(timeout=30.0)
    return client


class TestClusterServing:
    def test_counts_match_oracle(self, client):
        host = random_graph(9, 0.4, seed=11)
        client.register_graph("hosts", host)
        for pattern in (path_graph(3), cycle_graph(4), cycle_graph(5)):
            response = client.count(pattern, "hosts")
            assert response["count"] == count_homomorphisms_brute(pattern, host)

    def test_inline_target(self, client):
        host = random_graph(7, 0.5, seed=3)
        response = client.count(path_graph(4), host)
        assert response["count"] == count_homomorphisms_brute(
            path_graph(4), host,
        )

    def test_health_aggregates_workers(self, client):
        status, payload = client.healthz()
        assert status == 200
        assert payload["status"] == "ok"
        worker_probes = [
            name for name in payload["probes"] if name.startswith("worker-")
        ]
        assert len(worker_probes) == 2
        assert "router-workers" in payload["probes"]

    def test_readyz_aggregates_workers(self, client):
        status, payload = client.readyz()
        assert status == 200
        assert payload["ready"] is True

    def test_stats_cluster_block(self, client):
        stats = client.stats()
        cluster_block = stats["cluster"]
        assert cluster_block["router"]["admitted"] == 2
        ids = [worker["id"] for worker in cluster_block["workers"]]
        assert ids == ["w0", "w1"]
        assert all(worker["reachable"] for worker in cluster_block["workers"])

    def test_subscription_and_update_fan_out(self, client, cluster):
        host = cycle_graph(6)
        client.register_graph("live", host)
        sub = client.subscribe("live", pattern=cycle_graph(3))
        assert sub["value"] == 0
        update = client.target_update("live", add_edges=[(0, 2)])
        # One chord on C6 creates exactly one triangle; 6 hom images.
        refreshed = {
            s["id"]: s["value"] for s in update["subscriptions"]
        }
        assert refreshed[sub["id"]] == 6
        assert update["version"] == 1
        # The mutation is in the replication log with its version.
        assert cluster.router.state.versions["live"] == 1

    def test_mutation_errors_do_not_commit(self, client, cluster):
        log_before = len(cluster.router.state.entries)
        with pytest.raises(Exception):
            client.target_update("no-such-dataset", add_edges=[(0, 1)])
        assert len(cluster.router.state.entries) == log_before

    def test_verb_and_task_with_one_body_reach_one_worker(self, client):
        """The router places a request by its task, not its route: a
        ``/task`` request lands on the worker whose count cache the
        ``/count`` with the same body just warmed."""
        client.register_graph("placement", random_graph(10, 0.4, seed=31))
        patterns = [path_graph(n) for n in range(2, 6)] + [
            cycle_graph(n) for n in range(3, 7)
        ]
        for pattern in patterns:
            counted = client.count(pattern, "placement")
            result = client.run_task(HomCountTask(pattern, "placement"))
            assert result["value"] == counted["count"]
            assert result["cached"] is True

    def test_single_flight_coalesces_stampede(self, client, cluster):
        """A stampede of identical cold counts executes once: placement
        sends all six to one worker, whose scheduler coalesces them."""
        pattern = cycle_graph(5)
        host = random_graph(24, 0.5, seed=77)  # slow enough to overlap
        client.register_graph("hot", host)
        before = client.stats()["engine"]["counts_executed"]
        results: list[dict] = []
        errors: list[Exception] = []

        def hammer():
            try:
                results.append(
                    ServiceClient(port=cluster.port).count(pattern, "hot"),
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = count_homomorphisms_brute(pattern, host)
        assert [response["count"] for response in results] == [expected] * 6
        assert client.stats()["engine"]["counts_executed"] == before + 1

    def test_read_after_committed_update_sees_the_new_version(
        self, client, cluster,
    ):
        """A ``/task`` sent after a committed ``/target-update`` answers
        on the new version, even while the identical read on the old
        version is still running on the same worker."""
        host = random_graph(40, 0.15, seed=5)  # seconds of interpolation
        client.register_graph("ryw", host)
        task = AnswerCountTask(STAR, "ryw", method="interpolation")
        submitted = client.stats()["scheduler"]["submitted"]
        first: list[dict] = []
        reader = threading.Thread(target=lambda: first.append(
            ServiceClient(port=cluster.port).run_task(task),
        ))
        reader.start()
        deadline = time.time() + 30.0
        while client.stats()["scheduler"]["submitted"] == submitted:
            assert time.time() < deadline, "the first read never arrived"
            time.sleep(0.05)
        edge = next(
            (0, v) for v in range(1, 40)
            if not host.has_edge(0, v) and host.degree(v) > 0
        )
        assert client.target_update("ryw", add_edges=[edge])["version"] == 1
        assert reader.is_alive(), "the version-0 read finished too early"
        second = client.run_task(task)
        reader.join()
        updated = host.copy()
        updated.add_edge(*edge)
        query = parse_query(STAR)
        assert (first[0]["version"], first[0]["value"]) == (
            0, count_answers_direct(query, host),
        )
        assert (second["version"], second["value"]) == (
            1, count_answers_direct(query, updated),
        )
        assert second["value"] != first[0]["value"]

    def test_slow_count_executes_once(self, client, cluster):
        """A routed count that runs for over half a second is computed by
        one worker, once: the workers' summed executed jobs rise by
        exactly 1, and the router retries nothing."""
        host = random_graph(32, 0.2, seed=9)  # about a second to count
        client.register_graph("once", host)
        before = client.stats()["scheduler"]
        retries = cluster.router._retries_total.value
        slow = AnswerCountTask(STAR, "once", method="interpolation")
        response = client.request("POST", "/count-answers", slow.to_wire())
        assert response["count"] == count_answers_direct(parse_query(STAR), host)
        # Wait until every job a worker took has finished: submitted
        # jobs are either coalesced, executed or failed.
        deadline = time.time() + 30.0
        while True:
            after = client.stats()["scheduler"]
            delta = {key: after[key] - before[key] for key in (
                "submitted", "coalesced", "executed", "failed",
            )}
            if delta["submitted"] == (
                delta["coalesced"] + delta["executed"] + delta["failed"]
            ) or time.time() > deadline:
                break
            time.sleep(0.1)
        assert delta["executed"] == 1
        assert cluster.router._retries_total.value == retries

    def test_quiet_run_demotes_no_worker(self, client, cluster):
        """Pooled router→worker connections never look like a dead
        worker: 200 routed counts with no kills demote nobody and retry
        nothing."""
        host = random_graph(10, 0.4, seed=41)
        client.register_graph("quiet", host)
        patterns = [path_graph(n) for n in (2, 3, 4)] + [
            cycle_graph(n) for n in (3, 4)
        ]
        expected = [count_homomorphisms_brute(p, host) for p in patterns]
        events: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: events.append(record.getMessage())
        router_log = logging.getLogger("repro.cluster.router")
        router_log.addHandler(handler)
        retries = cluster.router._retries_total.value
        try:
            counts = [
                client.count(patterns[i % len(patterns)], "quiet")["count"]
                for i in range(200)
            ]
        finally:
            router_log.removeHandler(handler)
        assert counts == [expected[i % len(patterns)] for i in range(200)]
        assert "worker-demoted" not in events
        assert cluster.router._retries_total.value == retries
        assert cluster.router.worker_ids == ["w0", "w1"]


class TestRouterAggregation:
    def test_no_workers_is_failing(self):
        import asyncio

        router = ClusterRouter()
        try:
            status, payload, _ = asyncio.run(
                router.handle("GET", "/healthz", {}),
            )
        finally:
            router.close()
        assert status == 503
        assert payload["status"] == "failing"
        assert any("no workers" in reason for reason in payload["reasons"])

    def test_counting_without_workers_times_out_as_503(self):
        import asyncio

        router = ClusterRouter(request_timeout=0.4)
        try:
            status, payload, _ = asyncio.run(
                router.handle("POST", "/count", {"pattern": {}}),
            )
        finally:
            router.close()
        assert status == 503
        assert payload["code"] == "cluster-unavailable"

    def test_unknown_paths_count_under_one_label(self):
        """Probing random paths must not grow the router's request
        counts or metric labels without bound."""
        import asyncio

        router = ClusterRouter()
        paths = [f"/no-such-route-{i}" for i in range(3)]

        async def probe():
            return [await router.handle("GET", path, {}) for path in paths]

        try:
            replies = asyncio.run(probe())
        finally:
            router.close()
        assert [reply[1]["code"] for reply in replies] == ["unknown-route"] * 3
        assert router.request_counts == {"<unknown>": 3}
        text = metrics_registry().render_prometheus()
        assert not any(f'route="{path}"' in text for path in paths)
        assert 'repro_router_requests_total{route="<unknown>"}' in text

    def test_metrics_rejects_unknown_format_like_a_worker(self):
        import asyncio

        router = ClusterRouter()
        service = CountingService(workers=1, install_default_engine=False)
        try:
            routed = asyncio.run(
                router.handle("GET", "/metrics", {"format": "bogus"}),
            )
            direct = asyncio.run(
                service.handle("GET", "/metrics", {"format": "bogus"}),
            )
        finally:
            router.close()
            service.close()
        for status, payload, trace_id in (routed, direct):
            assert status == 400
            assert payload == {
                "kind": "error",
                "error": "unknown metrics format 'bogus'",
                "code": "bad-request",
                "trace_id": trace_id,
            }


class TestChaos:
    def test_sigkill_under_load_is_invisible(self):
        """SIGKILL one of three workers mid-load: zero failed requests,
        every count exact, and the worker comes back respawned."""
        host = random_graph(9, 0.45, seed=21)
        patterns = [path_graph(n) for n in (2, 3, 4)] + [cycle_graph(4)]
        expected = {
            i: count_homomorphisms_brute(pattern, host)
            for i, pattern in enumerate(patterns)
        }
        with Cluster(workers=3) as cluster:
            client = ServiceClient(port=cluster.port)
            client.wait_ready(timeout=30.0)
            client.register_graph("chaos", host)
            failures: list[tuple] = []
            done = threading.Event()

            def load(worker_index: int) -> None:
                local = ServiceClient(port=cluster.port, timeout=60.0)
                i = worker_index
                while not done.is_set():
                    i = (i + 1) % len(patterns)
                    try:
                        response = local.count(patterns[i], "chaos")
                        if response["count"] != expected[i]:
                            failures.append((i, response))
                    except Exception as error:
                        failures.append((i, error))

            threads = [
                threading.Thread(target=load, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.5)  # load established
                old_pid = cluster.kill_worker("w1")
                time.sleep(2.5)  # ride through death + respawn
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=60.0)
            assert failures == []
            # The worker came back as a fresh admitted process.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                pids = cluster.worker_pids()
                if (
                    pids.get("w1") not in (None, old_pid)
                    and "w1" in cluster.router.worker_ids
                ):
                    break
                time.sleep(0.2)
            assert cluster.worker_pids()["w1"] != old_pid
            assert sorted(cluster.router.worker_ids) == ["w0", "w1", "w2"]
            status, payload = client.healthz()
            assert status == 200 and payload["status"] == "ok"
            # And the respawned worker answers with replayed state.
            response = client.count(patterns[0], "chaos")
            assert response["count"] == expected[0]

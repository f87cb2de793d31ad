"""End-to-end service tests over a real loopback HTTP socket."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import HomCountTask, TaskBatch, WlDimensionTask
from repro.engine import set_default_engine
from repro.graphs import cycle_graph, grid_graph, path_graph, random_graph
from repro.homs.brute_force import count_homomorphisms_brute
from repro.kg import KnowledgeGraph, count_kg_answers_brute, kg_query_from_triples
from repro.queries.answers import count_answers
from repro.queries.parser import parse_query
from repro.service import BackgroundServer, ServiceClient, ServiceError
from repro.service.wire import graph_to_spec, kg_query_to_spec, kg_to_spec, task_to_wire


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture
def server():
    with BackgroundServer(workers=2, max_queue=32) as running:
        # readiness gate, not a timing assumption: the suite starts
        # talking to the service only once /readyz says it is ready
        ServiceClient(port=running.port).wait_ready()
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port)


class TestEndToEnd:
    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["kind"] == "stats"
        assert "engine" in stats and "scheduler" in stats

    def test_count_on_registered_dataset(self, client):
        host = random_graph(11, 0.35, seed=21)
        dataset = client.register_graph("hosts", host)
        assert dataset == {
            "name": "hosts", "kind": "graph",
            "vertices": 11, "edges": host.num_edges(),
            "version": 0, "subscriptions": 0,
        }
        pattern = cycle_graph(5)
        response = client.count(pattern, "hosts")
        assert response["count"] == count_homomorphisms_brute(pattern, host)
        assert response["plan"].startswith("matrix")

    def test_count_inline_target(self, client):
        host = random_graph(8, 0.5, seed=3)
        response = client.count(path_graph(4), host)
        assert response["count"] == count_homomorphisms_brute(path_graph(4), host)

    def test_count_answers_cq(self, client):
        host = random_graph(9, 0.4, seed=17)
        client.register_graph("g9", host)
        text = "q(x1, x2) :- E(x1, y), E(x2, y)"
        response = client.count_answers(text, "g9")
        assert response["count"] == count_answers(parse_query(text), host)
        assert response["method"].startswith("answer-plan(core=3, sew=2, tables=1)")
        assert response["target"] == "g9"

    def test_count_answers_boolean(self, client):
        response = client.count_answers("q() :- E(x, y)", cycle_graph(4))
        assert response["count"] == 1
        assert response["method"] == "direct"

    def test_count_kg_answers(self, client):
        kg = KnowledgeGraph(
            vertices={"u1": "User", "u2": "User", "m1": "Item", "m2": "Item"},
            triples=[
                ("u1", "likes", "m1"), ("u2", "likes", "m1"),
                ("u2", "likes", "m2"),
            ],
        )
        client.register_kg("taste", kg)
        query = kg_query_from_triples(
            [("x", "likes", "z"), ("y", "likes", "z")], ["x", "y"],
        )
        response = client.count_kg_answers(query, "taste")
        assert response["count"] == count_kg_answers_brute(query, kg)
        assert response["method"] == "kg-engine"

    def test_wl_dim_and_analyze(self, client):
        assert client.wl_dim("q(x1, x2) :- E(x1, y), E(x2, y)")["wl_dimension"] == 2
        analysis = client.analyze("q(x1) :- E(x1, y)")
        assert analysis["analysis"]["wl_dimension"] == 1

    def test_identical_concurrent_requests_agree(self, server, client):
        host = random_graph(18, 0.3, seed=33)
        client.register_graph("big", host)
        pattern_spec = {"graph6": None}
        from repro.graphs.io import to_graph6

        pattern = grid_graph(2, 3)
        pattern_spec = {"graph6": to_graph6(pattern)}

        def one_request(_):
            return ServiceClient(port=server.port).count(pattern_spec, "big")["count"]

        with ThreadPoolExecutor(max_workers=6) as pool:
            counts = set(pool.map(one_request, range(6)))
        assert counts == {count_homomorphisms_brute(pattern, host)}
        scheduler = client.stats()["scheduler"]
        assert scheduler["submitted"] >= 6
        assert scheduler["submitted"] == (
            scheduler["executed"] + scheduler["coalesced"]
            + scheduler["cached"] + scheduler["failed"]
        )
        # however the race fell, the engine ran the count at most as many
        # times as the scheduler actually executed jobs
        engine = client.stats()["engine"]
        assert engine["counts_executed"] <= scheduler["executed"]


TEXT = "q(x1, x2) :- E(x1, y), E(x2, y)"
KG_QUERY = kg_query_from_triples([("x", "likes", "z")], ["x"])

# Bodies naming the unregistered dataset "nope", one per counting route
# that takes a target (/wl-dim and /analyze take none), plus the KG and
# batch forms.
UNKNOWN_DATASET = {
    "task": ("/task", task_to_wire(HomCountTask(cycle_graph(3), "nope"))),
    "task-batch": ("/task", task_to_wire(TaskBatch([
        WlDimensionTask(TEXT), HomCountTask(cycle_graph(3), "nope"),
    ]))),
    "count": ("/count", task_to_wire(HomCountTask(cycle_graph(3), "nope"))),
    "count-answers": ("/count-answers", {"query": TEXT, "target": "nope"}),
    "count-answers-kg": ("/count-answers", {
        "kg_query": kg_query_to_spec(KG_QUERY), "target": "nope",
    }),
}

# Bodies missing a required field, one per counting route.
MISSING_FIELD = {
    "task": ("/task", {"task": "hom-count", "pattern": {"graph6": "D?{"}}),
    "count": ("/count", {"pattern": {"graph6": "D?{"}}),
    "count-answers": ("/count-answers", {"query": TEXT}),
    "wl-dim": ("/wl-dim", {}),
    "analyze": ("/analyze", {}),
}


class TestErrors:
    @pytest.mark.parametrize(
        "path, body", list(UNKNOWN_DATASET.values()), ids=list(UNKNOWN_DATASET),
    )
    def test_unknown_dataset_is_404(self, client, path, body):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", path, body)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-dataset"

    def test_bad_query_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.count_answers("q(x) :- R(x, y)", cycle_graph(4))
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/frobnicate", {})
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "path, body", list(MISSING_FIELD.values()), ids=list(MISSING_FIELD),
    )
    def test_missing_fields_are_400(self, client, path, body):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", path, body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"

    def test_register_with_graph_and_kg_is_400(self, client):
        """A body carrying both dataset kinds is refused before any work
        is scheduled, and registers neither."""
        kg = KnowledgeGraph(vertices={"a": "A", "b": "B"}, triples=[("a", "r", "b")])
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/register-dataset", {
                "name": "both",
                "graph": graph_to_spec(cycle_graph(5)),
                "kg": kg_to_spec(kg),
            })
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        assert "both" not in [dataset["name"] for dataset in client.datasets()]


class TestWarmRestart:
    def test_restart_serves_from_persistent_tier(self, tmp_path):
        """The acceptance scenario: a warm restart answers a
        previously-computed (pattern, target) count with zero plan
        recompilation and zero count execution."""
        data_dir = str(tmp_path / "cache")
        host = random_graph(12, 0.3, seed=7)
        pattern = cycle_graph(6)
        try:
            with BackgroundServer(data_dir=data_dir, workers=2) as first:
                client = ServiceClient(port=first.port)
                client.register_graph("hosts", host)
                cold = client.count(pattern, "hosts")
                engine = client.stats()["engine"]
                assert engine["plans_compiled"] >= 1
                assert engine["counts_executed"] >= 1

            with BackgroundServer(data_dir=data_dir, workers=2) as second:
                client = ServiceClient(port=second.port)
                client.register_graph("hosts", host)
                warm = client.count(pattern, "hosts")
                assert warm["count"] == cold["count"]
                engine = client.stats()["engine"]
                assert engine["plans_compiled"] == 0
                assert engine["counts_executed"] == 0
                assert engine["persistent_count_hits"] >= 1

                # a NEW target with the KNOWN pattern: count runs, but the
                # plan still arrives from the persistent tier.
                fresh = random_graph(12, 0.3, seed=8)
                response = client.count(pattern, fresh)
                assert response["count"] == count_homomorphisms_brute(pattern, fresh)
                engine = client.stats()["engine"]
                assert engine["plans_compiled"] == 0
                assert engine["counts_executed"] == 1
        finally:
            set_default_engine(None)

    def test_restart_serves_kg_answers_warm(self, tmp_path):
        data_dir = str(tmp_path / "kg-cache")
        kg = KnowledgeGraph(
            vertices={i: "P" for i in range(5)},
            triples=[(0, "r", 1), (1, "r", 2), (2, "r", 3), (3, "r", 4), (0, "r", 4)],
        )
        query = kg_query_from_triples([("x", "r", "y"), ("y", "r", "z")], ["x"])
        try:
            with BackgroundServer(data_dir=data_dir, workers=2) as first:
                client = ServiceClient(port=first.port)
                client.register_kg("kg", kg)
                cold = client.count_kg_answers(query, "kg")

            with BackgroundServer(data_dir=data_dir, workers=2) as second:
                client = ServiceClient(port=second.port)
                client.register_kg("kg", kg)
                warm = client.count_kg_answers(query, "kg")
                assert warm["count"] == cold["count"]
                engine = client.stats()["engine"]
                assert engine["plans_compiled"] == 0
                assert engine["counts_executed"] == 0
        finally:
            set_default_engine(None)

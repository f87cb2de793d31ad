"""Dataset registry: preprocessing and wire codecs."""

from __future__ import annotations

import pytest

from repro.engine import HomEngine
from repro.engine.cache import target_key
from repro.graphs import cycle_graph, random_graph
from repro.kg import KnowledgeGraph
from repro.service.registry import DatasetRegistry, RegistryError
from repro.service.wire import (
    WireError,
    graph_from_spec,
    graph_to_spec,
    kg_from_spec,
    kg_query_from_spec,
    kg_query_to_spec,
    kg_to_spec,
)


class TestRegistry:
    def test_register_precomputes_target_id(self):
        registry = DatasetRegistry()
        host = random_graph(10, 0.4, seed=5)
        dataset = registry.register_graph("hosts", host)
        assert dataset.target_id == target_key(host)
        # The dataset owns a versioned copy: equal content, but the
        # caller's graph can no longer mutate the served snapshot.
        assert registry.get("hosts").graph == host
        host.add_edge("fresh-a", "fresh-b")
        assert registry.get("hosts").graph != host
        assert registry.get("hosts").version == 0
        assert "hosts" in registry and len(registry) == 1

    def test_target_id_gives_identical_cache_entries(self):
        engine = HomEngine()
        host = random_graph(9, 0.4, seed=6)
        dataset = DatasetRegistry().register_graph("h", host)
        pattern = cycle_graph(4)
        first = engine.count(pattern, host, target_id=dataset.target_id)
        # the plain path must hit the same cache entry
        assert engine.cached_count(pattern, host) == first

    def test_unknown_and_wrong_kind_rejected(self):
        registry = DatasetRegistry()
        registry.register_graph("g", cycle_graph(4))
        with pytest.raises(RegistryError):
            registry.get("missing")
        with pytest.raises(RegistryError):
            registry.get("g", kind="kg")
        with pytest.raises(RegistryError):
            registry.register_graph("", cycle_graph(3))

    def test_kg_dataset_is_pre_encoded(self):
        registry = DatasetRegistry()
        kg = KnowledgeGraph(triples=[("a", "r", "b"), ("b", "s", "c")])
        dataset = registry.register_kg("knowledge", kg)
        assert dataset.kind == "kg"
        assert dataset.kg_encoding is not None
        # encoded gadget graph: 3 KG vertices + 2 midpoints per triple
        assert dataset.kg_encoding.graph.num_vertices() == 3 + 2 * 2
        assert dataset.summary()["triples"] == 2

    def test_replacing_a_dataset_changes_its_content_token(self):
        """Coalescing keys on the content token, so a re-registered name
        must not be able to join in-flight work on the old content."""
        registry = DatasetRegistry()
        first = registry.register_graph("hosts", random_graph(8, 0.4, seed=1))
        replaced = registry.register_graph("hosts", random_graph(8, 0.4, seed=2))
        assert first.content_token != replaced.content_token
        # idempotent re-registration (restart pattern) keeps the token
        again = registry.register_graph("hosts", random_graph(8, 0.4, seed=2))
        assert again.content_token == replaced.content_token

    def test_kg_content_token_sees_vertex_labels(self):
        registry = DatasetRegistry()
        triples = [("a", "r", "b")]
        plain = registry.register_kg(
            "k", KnowledgeGraph(triples=triples),
        )
        labelled = registry.register_kg(
            "k", KnowledgeGraph(vertices={"a": "P", "b": None}, triples=triples),
        )
        assert plain.content_token != labelled.content_token

    def test_summary_sorted_by_name(self):
        registry = DatasetRegistry()
        registry.register_graph("zebra", cycle_graph(3))
        registry.register_graph("alpha", cycle_graph(4))
        assert [d["name"] for d in registry.summary()] == ["alpha", "zebra"]


class TestWireCodecs:
    def test_graph_round_trip_graph6(self):
        graph = random_graph(9, 0.5, seed=8)
        spec = graph_to_spec(graph)
        assert "graph6" in spec
        decoded = graph_from_spec(spec)
        assert decoded.num_vertices() == graph.num_vertices()
        assert decoded.num_edges() == graph.num_edges()

    def test_graph_edge_list_spec(self):
        decoded = graph_from_spec(
            {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"]]},
        )
        assert decoded.num_vertices() == 4
        assert decoded.has_edge("a", "b")

    def test_bad_specs_rejected(self):
        with pytest.raises(WireError):
            graph_from_spec("not an object")
        with pytest.raises(WireError):
            graph_from_spec({})
        with pytest.raises(WireError):
            graph_from_spec({"edges": [["a", "b", "c"]]})

    def test_kg_round_trip(self):
        kg = KnowledgeGraph(
            vertices={"a": "P", "b": None},
            triples=[("a", "r", "b")],
        )
        decoded = kg_from_spec(kg_to_spec(kg))
        assert decoded.num_vertices() == 2
        assert decoded.vertex_label("a") == "P"
        assert decoded.has_edge("a", "r", "b")

    def test_kg_query_round_trip(self):
        spec = {
            "vertices": [["x", None], ["y", None], ["z", "Item"]],
            "triples": [["x", "likes", "z"], ["y", "likes", "z"]],
            "free": ["x", "y"],
        }
        query = kg_query_from_spec(spec)
        assert query.free_variables == frozenset({"x", "y"})
        back = kg_query_to_spec(query)
        assert back["free"] == ["x", "y"]
        assert sorted(map(tuple, back["triples"])) == [
            ("x", "likes", "z"), ("y", "likes", "z"),
        ]

"""Unit tests for the knowledge-graph extension (remark (C))."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import GraphError, QueryError
from repro.graphs import Graph, six_cycle, two_triangles
from repro.kg import (
    KgQuery,
    KnowledgeGraph,
    count_kg_answers,
    count_kg_homomorphisms,
    enumerate_kg_homomorphisms,
    kg_colour_refinement,
    kg_extension_graph,
    kg_extension_width,
    kg_query_from_triples,
    kg_wl_1_equivalent,
)
from repro.wl import wl_1_equivalent


def _social_kg() -> KnowledgeGraph:
    """A small labelled instance: people follow people, people like posts."""
    kg = KnowledgeGraph(
        vertices={
            "alice": "person",
            "bob": "person",
            "carol": "person",
            "p1": "post",
            "p2": "post",
        },
    )
    kg.add_edge("alice", "follows", "bob")
    kg.add_edge("bob", "follows", "carol")
    kg.add_edge("carol", "follows", "alice")
    kg.add_edge("alice", "likes", "p1")
    kg.add_edge("bob", "likes", "p1")
    kg.add_edge("bob", "likes", "p2")
    return kg


def _kg_of(graph: Graph) -> KnowledgeGraph:
    """The KG of an undirected graph: each edge in both directions under
    one edge label, no vertex labels."""
    kg = KnowledgeGraph(vertices=graph.vertices())
    for u, v in graph.edges():
        kg.add_edge(u, "e", v)
        kg.add_edge(v, "e", u)
    return kg


@st.composite
def _graphs_on(draw, n):
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(i, j)
    return graph


class TestStructure:
    def test_basic_accessors(self):
        kg = _social_kg()
        assert kg.num_vertices() == 5
        assert kg.num_triples() == 6
        assert kg.vertex_label("p1") == "post"
        assert kg.has_edge("alice", "follows", "bob")
        assert not kg.has_edge("bob", "follows", "alice")

    def test_parallel_edges_distinct_labels(self):
        kg = KnowledgeGraph()
        kg.add_edge("a", "r", "b")
        kg.add_edge("a", "s", "b")
        assert kg.num_triples() == 2

    def test_self_loops_rejected(self):
        with pytest.raises(GraphError):
            KnowledgeGraph(triples=[("a", "r", "a")])

    def test_label_conflict_rejected(self):
        kg = KnowledgeGraph(vertices={"a": "person"})
        with pytest.raises(GraphError):
            kg.add_vertex("a", "robot")

    def test_gaifman_graph(self):
        kg = _social_kg()
        gaifman = kg.gaifman_graph()
        assert gaifman.has_edge("alice", "bob")
        assert gaifman.has_edge("alice", "p1")
        assert not gaifman.has_edge("p1", "p2")

    def test_directionality_of_edges(self):
        kg = _social_kg()
        assert ("follows", "bob") in kg.out_edges("alice")
        assert ("follows", "alice") not in kg.out_edges("bob")
        assert ("follows", "alice") in kg.in_edges("bob")


class TestHomomorphisms:
    def test_direction_matters(self):
        pattern = KnowledgeGraph(triples=[("u", "follows", "v")])
        target = _social_kg()
        count = count_kg_homomorphisms(pattern, target)
        assert count == 3  # the directed follows-triangle

    def test_labels_matter(self):
        kg = _social_kg()
        likes = KnowledgeGraph(triples=[("u", "likes", "v")])
        assert count_kg_homomorphisms(likes, kg) == 3

    def test_vertex_labels_restrict(self):
        kg = _social_kg()
        pattern = KnowledgeGraph(
            vertices={"u": "person", "v": "person"},
            triples=[("u", "likes", "v")],
        )
        # likes-edges all point to posts: no label-respecting image.
        assert count_kg_homomorphisms(pattern, kg) == 0

    def test_wildcard_vertex_labels(self):
        kg = _social_kg()
        pattern = KnowledgeGraph(triples=[("u", "likes", "v")])
        assert pattern.vertex_label("u") is None
        assert count_kg_homomorphisms(pattern, kg) == 3

    def test_fixed_assignment(self):
        kg = _social_kg()
        pattern = KnowledgeGraph(triples=[("u", "likes", "v")])
        homs = list(
            enumerate_kg_homomorphisms(pattern, kg, fixed={"v": "p1"}),
        )
        assert {h["u"] for h in homs} == {"alice", "bob"}

    def test_two_atom_pattern(self):
        kg = _social_kg()
        pattern = KnowledgeGraph(
            triples=[("u", "follows", "w"), ("w", "likes", "p")],
        )
        count = count_kg_homomorphisms(pattern, kg)
        # u→w follows with w liking something: alice→bob (p1, p2),
        # carol→alice (p1): 3.
        assert count == 3


class TestColourRefinement:
    def test_labels_seed_partition(self):
        kg = _social_kg()
        colours = kg_colour_refinement(kg)
        assert colours["p1"] != colours["alice"]

    def test_refinement_sees_direction(self):
        # a→b vs b→a patterns: in a directed path, source and sink differ.
        chain = KnowledgeGraph(triples=[("a", "r", "b"), ("b", "r", "c")])
        colours = kg_colour_refinement(chain)
        assert len({colours["a"], colours["b"], colours["c"]}) == 3

    def test_kg_wl1_equivalence_positive(self):
        first = KnowledgeGraph(triples=[("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        second = KnowledgeGraph(triples=[("x", "r", "y"), ("y", "r", "z"), ("z", "r", "x")])
        assert kg_wl_1_equivalent(first, second)

    def test_kg_wl1_equivalence_negative_by_label(self):
        first = KnowledgeGraph(triples=[("a", "r", "b")])
        second = KnowledgeGraph(triples=[("a", "s", "b")])
        assert not kg_wl_1_equivalent(first, second)

    def test_kg_wl1_direction_sensitivity(self):
        # Two directed edges into one vertex vs out of one vertex.
        sink = KnowledgeGraph(triples=[("a", "r", "c"), ("b", "r", "c")])
        source = KnowledgeGraph(triples=[("c", "r", "a"), ("c", "r", "b")])
        assert not kg_wl_1_equivalent(sink, source)

    def test_kg_wl1_two_triangles_vs_six_cycle(self):
        first, second = two_triangles(), six_cycle()
        assert wl_1_equivalent(first, second)
        assert kg_wl_1_equivalent(_kg_of(first), _kg_of(second))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_kg_wl1_agrees_with_graph_wl1(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        first, second = data.draw(_graphs_on(n)), data.draw(_graphs_on(n))
        assert kg_wl_1_equivalent(_kg_of(first), _kg_of(second)) == (
            wl_1_equivalent(first, second)
        )


class TestKgQueries:
    def test_answer_counting(self):
        kg = _social_kg()
        # who likes a post also liked by someone else they are followed by?
        query = kg_query_from_triples(
            [("x", "likes", "p"), ("y", "likes", "p")],
            ["x", "y"],
        )
        answers = count_kg_answers(query, kg)
        # pairs (x, y) sharing a liked post: (a,a),(a,b),(b,a),(b,b) via p1,
        # plus (b,b) via p2 (already counted): 4.
        assert answers == 4

    def test_free_variables_validated(self):
        pattern = KnowledgeGraph(triples=[("u", "r", "v")])
        with pytest.raises(QueryError):
            KgQuery(pattern, ["missing"])

    def test_boolean_kg_query(self):
        kg = _social_kg()
        query = kg_query_from_triples([("x", "follows", "y")], [])
        assert count_kg_answers(query, kg) == 1

    def test_extension_graph_cliques(self):
        # Shared quantified 'post' induces the x-y clique edge in Γ.
        query = kg_query_from_triples(
            [("x", "likes", "p"), ("y", "likes", "p")],
            ["x", "y"],
        )
        gamma = kg_extension_graph(query)
        assert gamma.has_edge("x", "y")

    def test_kg_extension_width_star_analogue(self):
        """The KG 2-star has extension width 2, mirroring the undirected
        theory (remark (C): the analysis carries over)."""
        query = kg_query_from_triples(
            [("x1", "likes", "p"), ("x2", "likes", "p")],
            ["x1", "x2"],
        )
        assert kg_extension_width(query) == 2

    def test_kg_full_query_width(self):
        query = kg_query_from_triples(
            [("a", "r", "b"), ("b", "r", "c")],
            ["a", "b", "c"],
        )
        assert kg_extension_width(query) == 1

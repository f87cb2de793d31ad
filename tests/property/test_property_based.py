"""Property-based tests (hypothesis) for core invariants.

Strategy: random graphs/queries of bounded size, asserting the structural
identities the paper's proofs rely on.  Sizes are kept small so each example
runs in milliseconds; hypothesis explores the space.
"""

from hypothesis import given, settings, strategies as st

from repro.api import LocalExecutor
from repro.engine import HomEngine
from repro.graphs import Graph, are_isomorphic, canonical_key, complement
from repro.graphs.operations import tensor_product
from repro.homs import (
    count_homomorphisms_brute,
    count_homomorphisms_dp,
    count_injective_homomorphisms,
    count_injective_homomorphisms_brute,
)
from repro.queries import (
    ConjunctiveQuery,
    count_answers,
    count_answers_by_projection,
    extension_width,
    semantic_extension_width,
)
from repro.treewidth import (
    optimal_tree_decomposition,
    treewidth,
    treewidth_lower_bound,
)
from repro.wl import wl_1_equivalent


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices=6, min_vertices=0):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for edge in possible:
        if draw(st.booleans()):
            graph.add_edge(*edge)
    return graph


@st.composite
def connected_graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    for v in range(1, n):
        graph.add_edge(v, draw(st.integers(min_value=0, max_value=v - 1)))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in possible:
        if not graph.has_edge(i, j) and draw(st.booleans()):
            graph.add_edge(i, j)
    return graph


@st.composite
def queries(draw, max_vertices=5):
    graph = draw(connected_graphs(max_vertices=max_vertices))
    vertices = graph.vertices()
    num_free = draw(st.integers(min_value=1, max_value=len(vertices)))
    free = vertices[:num_free]
    return ConjunctiveQuery(graph, free)


@st.composite
def any_queries(draw, max_vertices=5):
    """Non-Boolean queries of any shape: disconnected, with isolated free
    or existential variables, all-existential components, and cores
    that are full or fold existential variables away."""
    graph = draw(graphs(max_vertices=max_vertices, min_vertices=1))
    free = draw(st.lists(st.sampled_from(graph.vertices()), min_size=1, unique=True))
    return ConjunctiveQuery(graph, free)


# ----------------------------------------------------------------------
# graph invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(graphs())
def test_complement_involution(graph):
    assert complement(complement(graph)) == graph


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=5))
def test_canonical_key_invariant_under_relabelling(graph):
    mapping = {v: f"r{v}" for v in graph.vertices()}
    assert canonical_key(graph) == canonical_key(graph.relabelled(mapping))


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=5), graphs(max_vertices=5))
def test_canonical_key_complete(first, second):
    assert (canonical_key(first) == canonical_key(second)) == are_isomorphic(
        first, second,
    )


# ----------------------------------------------------------------------
# treewidth invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=7))
def test_treewidth_bounds_sandwich(graph):
    width = treewidth(graph)
    assert treewidth_lower_bound(graph) <= width
    assert width <= max(graph.num_vertices() - 1, 0)


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=6, min_vertices=1))
def test_optimal_decomposition_valid_and_tight(graph):
    decomposition = optimal_tree_decomposition(graph)
    decomposition.validate(graph)
    assert decomposition.width == treewidth(graph)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_vertices=6))
def test_treewidth_monotone_under_edge_removal(graph):
    width = treewidth(graph)
    for u, v in graph.edges()[:3]:
        smaller = graph.copy()
        smaller.remove_edge(u, v)
        assert treewidth(smaller) <= width


# ----------------------------------------------------------------------
# homomorphism invariants
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_vertices=4), graphs(max_vertices=5))
def test_dp_matches_brute_force(pattern, target):
    assert count_homomorphisms_dp(pattern, target) == (
        count_homomorphisms_brute(pattern, target)
    )


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=4), graphs(max_vertices=4, min_vertices=1))
def test_injective_moebius_matches_filter(pattern, target):
    assert count_injective_homomorphisms(pattern, target) == (
        count_injective_homomorphisms_brute(pattern, target)
    )


@settings(max_examples=15, deadline=None)
@given(
    connected_graphs(max_vertices=3),
    graphs(max_vertices=4, min_vertices=1),
    graphs(max_vertices=4, min_vertices=1),
)
def test_tensor_multiplicativity(pattern, first, second):
    product_graph = tensor_product(first, second)
    assert count_homomorphisms_brute(pattern, product_graph) == (
        count_homomorphisms_brute(pattern, first)
        * count_homomorphisms_brute(pattern, second)
    )


# ----------------------------------------------------------------------
# query invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(any_queries(max_vertices=5), graphs(max_vertices=5))
def test_answer_counting_methods_agree(query, target):
    expected = count_answers(query, target)
    assert count_answers_by_projection(query, target) == expected
    executor = LocalExecutor(engine=HomEngine())
    for method in ("direct", "interpolation", "auto"):
        assert executor.answer_count(query, target, method=method) == expected, method


@settings(max_examples=20, deadline=None)
@given(queries(max_vertices=4))
def test_sew_at_most_ew(query):
    assert semantic_extension_width(query) <= extension_width(query)


@settings(max_examples=20, deadline=None)
@given(queries(max_vertices=4))
def test_ew_at_least_treewidth(query):
    """Γ(H, X) ⊇ H, and treewidth is subgraph-monotone."""
    assert extension_width(query) >= treewidth(query.graph)


@settings(max_examples=15, deadline=None)
@given(queries(max_vertices=4), graphs(max_vertices=4))
def test_answers_invariant_under_host_relabelling(query, target):
    mapping = {v: ("tag", v) for v in target.vertices()}
    relabelled = target.relabelled(mapping)
    assert count_answers(query, target) == count_answers(query, relabelled)


# ----------------------------------------------------------------------
# WL invariants
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=6, min_vertices=1))
def test_wl1_reflexive_under_relabelling(graph):
    mapping = {v: f"m{v}" for v in graph.vertices()}
    assert wl_1_equivalent(graph, graph.relabelled(mapping))


@settings(max_examples=15, deadline=None)
@given(graphs(max_vertices=5, min_vertices=1), graphs(max_vertices=5, min_vertices=1))
def test_wl1_refines_degree_sequence(first, second):
    if wl_1_equivalent(first, second):
        assert first.degree_sequence() == second.degree_sequence()

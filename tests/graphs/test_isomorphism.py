"""Unit tests for isomorphism, coloured isomorphism, and automorphisms."""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    are_isomorphic,
    automorphism_count,
    automorphisms,
    complete_graph,
    cycle_graph,
    find_isomorphism,
    find_isomorphism_coloured,
    is_isomorphism,
    orbit_partition,
    path_graph,
    petersen_graph,
    six_cycle,
    star_graph,
    two_triangles,
)


class TestIsomorphism:
    def test_relabelled_graphs_isomorphic(self):
        g = cycle_graph(5)
        h = g.relabelled({i: f"v{i}" for i in range(5)})
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert is_isomorphism(g, h, mapping)

    def test_different_sizes_not_isomorphic(self):
        assert not are_isomorphic(path_graph(3), path_graph(4))

    def test_same_degree_sequence_not_isomorphic(self):
        # C6 and 2K3 share the degree sequence but are not isomorphic.
        assert not are_isomorphic(six_cycle(), two_triangles())

    def test_path_vs_star(self):
        assert not are_isomorphic(path_graph(4), star_graph(3))

    def test_self_isomorphic(self):
        g = petersen_graph()
        assert are_isomorphic(g, g.copy())

    def test_empty_graphs(self):
        assert are_isomorphic(Graph(), Graph())

    def test_k4_permutation(self):
        g = complete_graph(4)
        h = g.relabelled({0: 3, 1: 2, 2: 1, 3: 0})
        assert are_isomorphic(g, h)


class TestColouredIsomorphism:
    def test_colours_constrain(self):
        g = path_graph(3)  # 0-1-2
        h = path_graph(3)
        ends = {0: "end", 1: "mid", 2: "end"}
        assert find_isomorphism_coloured(g, h, ends, ends) is not None
        twisted = {0: "mid", 1: "end", 2: "end"}
        assert find_isomorphism_coloured(g, h, ends, twisted) is None

    def test_coloured_histogram_mismatch(self):
        g = path_graph(2)
        a = {0: "r", 1: "r"}
        b = {0: "r", 1: "b"}
        assert find_isomorphism_coloured(g, g, a, b) is None


class TestAutomorphisms:
    def test_cycle_automorphism_count(self):
        # Dihedral group: |Aut(C_n)| = 2n.
        assert automorphism_count(cycle_graph(5)) == 10
        assert automorphism_count(cycle_graph(6)) == 12

    def test_complete_graph_automorphisms(self):
        # Symmetric group: n!.
        assert automorphism_count(complete_graph(4)) == 24

    def test_path_automorphisms(self):
        assert automorphism_count(path_graph(4)) == 2

    def test_star_automorphisms(self):
        # Leaves permute freely: k!.
        assert automorphism_count(star_graph(3)) == 6

    def test_petersen_automorphisms(self):
        # |Aut(Petersen)| = 120.
        assert automorphism_count(petersen_graph()) == 120

    def test_identity_always_present(self):
        g = path_graph(3)
        identity = {v: v for v in g.vertices()}
        assert identity in list(automorphisms(g))

    def test_coloured_automorphisms_restricted(self):
        g = cycle_graph(4)
        colours = {0: "a", 1: "b", 2: "a", 3: "b"}
        count = automorphism_count(g, colours)
        # Only rotations by 2 and the two reflections fixing the classes: 4.
        assert count == 4


class TestOrbits:
    def test_vertex_transitive(self):
        orbits = orbit_partition(cycle_graph(5))
        assert len(orbits) == 1
        assert len(next(iter(orbits))) == 5

    def test_star_orbits(self):
        orbits = orbit_partition(star_graph(3))
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [1, 3]  # centre and leaves

    def test_path_orbits(self):
        orbits = orbit_partition(path_graph(4))
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [2, 2]


class TestIsIsomorphismValidation:
    def test_rejects_wrong_domain(self):
        g = path_graph(3)
        assert not is_isomorphism(g, g, {0: 0, 1: 1})

    def test_rejects_non_bijective(self):
        g = path_graph(3)
        assert not is_isomorphism(g, g, {0: 0, 1: 0, 2: 2})

    def test_rejects_non_edge_preserving(self):
        g = path_graph(3)
        assert not is_isomorphism(g, g, {0: 0, 1: 2, 2: 1})

    def test_predicate_hook(self):
        g = path_graph(3)
        identity = {v: v for v in g.vertices()}
        assert is_isomorphism(g, g, identity, predicate=lambda a, b: a == b)
        assert not is_isomorphism(
            g, g, identity, predicate=lambda a, b: a != b,
        )


@st.composite
def coloured_graphs(draw, max_vertices=6):
    """A graph on ``0..n-1`` and, half the time, a random 2-colouring
    (``None`` otherwise)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(i, j)
    colours = None
    if draw(st.booleans()):
        colours = {v: draw(st.sampled_from("ab")) for v in range(n)}
    return graph, colours


class TestRefinementGuidedSearchProperties:
    """The search prunes with one colour refinement of the disjoint union
    of both graphs; brute force over all permutations is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(coloured_graphs())
    def test_automorphism_count_matches_permutations(self, case):
        graph, colours = case
        vertices = graph.vertices()
        colour = colours or {v: 0 for v in vertices}
        expected = 0
        for image in permutations(vertices):
            mapping = dict(zip(vertices, image))
            if all(colour[v] == colour[mapping[v]] for v in vertices) and all(
                graph.has_edge(mapping[u], mapping[v]) for u, v in graph.edges()
            ):
                expected += 1
        assert automorphism_count(graph, colours) == expected

    @settings(max_examples=150, deadline=None)
    @given(coloured_graphs(), st.data())
    def test_shuffled_copy_found_isomorphic(self, case, data):
        graph, colours = case
        vertices = graph.vertices()
        colours = colours or {v: 0 for v in vertices}
        shuffle = dict(zip(vertices, data.draw(st.permutations(vertices))))
        # Insert the copy's vertices in sorted order, so its index order
        # differs from the original's as well as its names.
        copy = Graph(vertices=sorted(shuffle.values()))
        for u, v in graph.edges():
            copy.add_edge(shuffle[u], shuffle[v])
        copy_colours = {shuffle[v]: c for v, c in colours.items()}
        mapping = find_isomorphism_coloured(graph, copy, colours, copy_colours)
        assert mapping is not None
        assert is_isomorphism(
            graph, copy, mapping,
            predicate=lambda v, w: colours[v] == copy_colours[w],
        )

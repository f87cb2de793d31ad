"""Unit tests for 1-WL colour refinement."""

import pytest

from repro.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
    six_cycle,
    star_graph,
    two_triangles,
)
from repro.wl import (
    ColourInterner,
    colour_histogram,
    colour_refinement,
    refinement_rounds,
    wl_1_equivalent,
)


class TestRefinement:
    def test_regular_graph_single_class(self):
        colours = colour_refinement(cycle_graph(6))
        assert len(set(colours.values())) == 1

    def test_path_classes(self):
        colours = colour_refinement(path_graph(5))
        # Orbits of P5 under Aut: {0,4}, {1,3}, {2} — refinement finds them.
        assert len(set(colours.values())) == 3

    def test_star_two_classes(self):
        colours = colour_refinement(star_graph(4))
        assert len(set(colours.values())) == 2

    def test_initial_colours_respected(self):
        g = cycle_graph(4)
        colours = colour_refinement(g, initial={0: "x", 1: "y", 2: "y", 3: "y"})
        # Individualising one vertex of C4 splits it fully by distance.
        assert len(set(colours.values())) == 3

    def test_shared_interner_comparable(self):
        interner = ColourInterner()
        a = colour_refinement(cycle_graph(5), interner=interner)
        b = colour_refinement(cycle_graph(5), interner=interner)
        assert colour_histogram(a) == colour_histogram(b)


class TestEquivalence:
    def test_classic_pair_equivalent(self):
        """2K3 vs C6 — the canonical 1-WL-equivalent non-isomorphic pair."""
        assert wl_1_equivalent(two_triangles(), six_cycle())

    def test_distinguishes_path_star(self):
        assert not wl_1_equivalent(path_graph(4), star_graph(3))

    def test_isomorphic_graphs_equivalent(self):
        g = random_graph(7, 0.4, seed=3)
        h = g.relabelled({v: f"u{v}" for v in g.vertices()})
        assert wl_1_equivalent(g, h)

    def test_distinguishes_different_degree_sequences(self):
        assert not wl_1_equivalent(cycle_graph(4), path_graph(4))

    def test_regular_same_degree_equivalent(self):
        """Any two d-regular graphs on equally many vertices are
        1-WL-equivalent."""
        assert wl_1_equivalent(petersen_graph(), _three_regular_alternative())

    def test_different_sizes(self):
        assert not wl_1_equivalent(cycle_graph(5), cycle_graph(6))


def _three_regular_alternative():
    """A 3-regular 10-vertex graph that is not the Petersen graph (it has
    triangles): the pentagonal prism."""
    from repro.graphs import prism_graph

    return prism_graph(5)


class TestRounds:
    def test_regular_graph_stabilises_immediately(self):
        assert refinement_rounds(cycle_graph(8)) == 0

    @pytest.mark.parametrize(
        "graph, rounds",
        [
            *(
                pytest.param(path_graph(n), (n - 1) // 2, id=f"path{n}")
                for n in range(2, 11)
            ),
            pytest.param(star_graph(4), 1, id="star4"),
            pytest.param(petersen_graph(), 0, id="petersen"),
        ],
    )
    def test_rounds_exact(self, graph, rounds):
        # A path's colours spread inward from both ends one step per round.
        assert refinement_rounds(graph) == rounds

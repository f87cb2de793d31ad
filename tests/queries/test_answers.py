"""Unit tests for answer counting: brute force, projection, colour-restricted
variants, and Lemma-22 interpolation."""

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.homs import count_homomorphisms
from repro.queries import (
    ConjunctiveQuery,
    count_answers,
    count_answers_by_interpolation,
    count_answers_by_projection,
    count_answers_id,
    count_answers_tau,
    count_cp_answers,
    enumerate_answers,
    extension_counts,
    hom_count_of_ell_copy,
    path_endpoints_query,
    power_sum_identity_check,
    query_from_atoms,
    star_query,
)


class TestBasicCounting:
    def test_star2_answers_are_common_neighbour_pairs(self):
        q = star_query(2)
        g = path_graph(3)  # 0-1-2; common-neighbour pairs share vertex 1
        # (0,0),(0,2),(2,0),(2,2) via y=1; (1,1) via y=0 or 2.
        assert count_answers(q, g) == 5

    def test_full_query_counts_homs(self):
        q = ConjunctiveQuery(path_graph(3), [0, 1, 2])
        g = random_graph(6, 0.5, seed=21)
        assert count_answers(q, g) == count_homomorphisms(path_graph(3), g)

    def test_boolean_query(self):
        q = ConjunctiveQuery(complete_graph(3), [])
        assert count_answers(q, complete_graph(4)) == 1
        assert count_answers(q, path_graph(5)) == 0

    def test_projection_agrees(self):
        for seed in range(3):
            g = random_graph(6, 0.45, seed=seed)
            for q in (star_query(2), path_endpoints_query(1)):
                assert count_answers(q, g) == count_answers_by_projection(q, g)

    def test_answers_leq_all_assignments(self):
        q = star_query(3)
        g = random_graph(5, 0.5, seed=33)
        assert count_answers(q, g) <= 5 ** 3

    def test_empty_target(self):
        assert count_answers(star_query(2), Graph()) == 0

    def test_isolated_free_variable_multiplies(self):
        q = query_from_atoms([("x", "y")], ["x", "z"])
        g = cycle_graph(4)
        base = count_answers(query_from_atoms([("x", "y")], ["x"]), g)
        assert count_answers(q, g) == base * 4

    def test_enumerate_yields_extendable_assignments(self):
        q = star_query(2)
        g = cycle_graph(5)
        for answer in enumerate_answers(q, g):
            common = set(g.neighbours(answer["x1"])) & set(g.neighbours(answer["x2"]))
            assert common


class TestColourRestricted:
    def _coloured_setup(self):
        q = star_query(2)
        g = cycle_graph(6)
        # H-colouring of C6 onto the star graph S2 (x1, y, x2, y, x1, y...)
        colouring = {0: "x1", 1: "y", 2: "x2", 3: "y", 4: "x1", 5: "y"}
        return q, g, colouring

    def test_ans_tau_partition(self):
        """Observation 37: |Ans| = Σ_τ |Ans_τ| over all τ: X → V(H)."""
        q, g, colouring = self._coloured_setup()
        total = count_answers(q, g)
        from itertools import product

        tau_total = 0
        targets = list(q.graph.vertices())
        for images in product(targets, repeat=2):
            tau = {"x1": images[0], "x2": images[1]}
            tau_total += count_answers_tau(q, g, colouring, tau)
        assert tau_total == total

    def test_ans_id_subset_of_total(self):
        q, g, colouring = self._coloured_setup()
        assert count_answers_id(q, g, colouring) <= count_answers(q, g)

    def test_cp_answers_subset_of_id(self):
        """Observation 49: cpAns ⊆ Ans_id."""
        q, g, colouring = self._coloured_setup()
        assert count_cp_answers(q, g, colouring) <= count_answers_id(q, g, colouring)

    def test_lemma50_on_minimal_query(self):
        """For counting-minimal queries, cpAns = Ans_id (Lemma 50)."""
        q, g, colouring = self._coloured_setup()
        assert count_cp_answers(q, g, colouring) == count_answers_id(q, g, colouring)


class TestExtensionProfiles:
    def test_extension_counts_positive(self):
        q = star_query(2)
        g = cycle_graph(5)
        profile = extension_counts(q, g)
        assert len(profile) == count_answers(q, g)
        assert all(size >= 1 for size in profile)

    def test_power_sum_identity(self):
        """|Hom(F_ℓ, G)| = Σ_σ |Ext(σ)|^ℓ (the engine of Lemma 22)."""
        q = star_query(2)
        for g in (cycle_graph(5), random_graph(5, 0.6, seed=2)):
            assert power_sum_identity_check(q, g, max_ell=3)

    def test_ell_copy_hom_counts_monotone_structure(self):
        q = star_query(2)
        g = complete_graph(4)
        p1 = hom_count_of_ell_copy(q, g, 1)
        p2 = hom_count_of_ell_copy(q, g, 2)
        assert p2 >= p1  # sizes ≥ 1 make power sums monotone in ℓ


class TestInterpolation:
    @pytest.mark.parametrize("seed", range(4))
    def test_star2_interpolation(self, seed):
        q = star_query(2)
        g = random_graph(6, 0.5, seed=seed)
        assert count_answers_by_interpolation(q, g) == count_answers(q, g)

    @pytest.mark.parametrize("seed", range(2))
    def test_star3_interpolation(self, seed):
        q = star_query(3)
        g = random_graph(5, 0.5, seed=10 + seed)
        assert count_answers_by_interpolation(q, g) == count_answers(q, g)

    def test_path_query_interpolation(self):
        q = path_endpoints_query(2)
        g = random_graph(6, 0.4, seed=5)
        assert count_answers_by_interpolation(q, g) == count_answers(q, g)

    def test_full_query_short_circuit(self):
        q = ConjunctiveQuery(complete_graph(3), [0, 1, 2])
        g = complete_graph(4)
        assert count_answers_by_interpolation(q, g) == 24

    def test_no_answers(self):
        q = star_query(2)
        g = Graph(vertices=range(4))  # edgeless: no common neighbours
        assert count_answers_by_interpolation(q, g) == 0

    def test_boolean_query_rejected(self):
        from repro.errors import QueryError

        q = ConjunctiveQuery(path_graph(2), [])
        with pytest.raises(QueryError):
            count_answers_by_interpolation(q, complete_graph(3))

    def test_single_extension_size(self):
        """Host where every answer has the same extension count (K_n:
        every pair has the same number of common neighbours)."""
        q = star_query(2)
        g = complete_graph(5)
        assert count_answers_by_interpolation(q, g) == count_answers(q, g) == 25


class TestPronySolver:
    def test_power_sums_beyond_float_range_solve_exactly(self):
        from repro.queries import count_answers_from_power_sums

        profile = {10 ** 150 + 7: 3, 10 ** 40: 4, 5: 2}  # size -> multiplicity

        def fetch(ell):
            return sum(m * size ** ell for size, m in profile.items())

        assert fetch(6) > 2 ** 1024  # p_{2d} overflows a float
        assert count_answers_from_power_sums(fetch) == 9

    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_profiles_solve_exactly(self, seed):
        from repro.queries import count_answers_from_power_sums

        q = star_query(2)
        g = random_graph(12, 0.4, seed=seed)
        sizes = extension_counts(q, g)
        assert count_answers_from_power_sums(
            lambda ell: sum(x ** ell for x in sizes),
        ) == len(sizes)


class TestObservation23:
    """The answer count as an explicit rational combination of
    bounded-treewidth homomorphism counts."""

    @pytest.mark.parametrize("seed", range(3))
    def test_combination_evaluates_to_answer_count(self, seed):
        from repro.queries import (
            evaluate_hom_combination,
            hom_combination_for_answers,
        )

        query = star_query(2)
        host = random_graph(6, 0.5, seed=seed)
        combination = hom_combination_for_answers(query, host)
        assert evaluate_hom_combination(query, host, combination) == (
            count_answers(query, host)
        )

    def test_combination_patterns_have_bounded_treewidth(self):
        """Lemma 16: every F_ℓ in the combination has tw ≤ ew(H, X)."""
        from repro.queries import (
            ell_copy,
            extension_width,
            hom_combination_for_answers,
        )
        from repro.treewidth import treewidth

        query = star_query(2)
        host = random_graph(6, 0.5, seed=9)
        width = extension_width(query)
        for _, ell in hom_combination_for_answers(query, host):
            pattern, _ = ell_copy(query, ell)
            assert treewidth(pattern) <= width

    def test_empty_combination_for_no_answers(self):
        from repro.queries import hom_combination_for_answers

        host = Graph(vertices=range(3))
        assert hom_combination_for_answers(star_query(2), host) == []

    def test_combination_on_path_query(self):
        from repro.queries import (
            evaluate_hom_combination,
            hom_combination_for_answers,
        )

        query = path_endpoints_query(2)
        host = random_graph(6, 0.4, seed=13)
        combination = hom_combination_for_answers(query, host)
        assert evaluate_hom_combination(query, host, combination) == (
            count_answers(query, host)
        )

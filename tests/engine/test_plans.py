"""Unit tests for plan compilation and the treewidth-aware backend choice."""

import pytest

from repro.engine import (
    BrutePlan,
    ConstantPlan,
    DPPlan,
    MatrixPlan,
    compile_dp_plan,
    compile_plan,
    select_backend,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    star_graph,
    two_triangles,
)
from repro.homs import count_homomorphisms_brute


class TestSelection:
    def test_paths_and_cycles_get_matrix_plans(self):
        for pattern in (path_graph(2), path_graph(7), cycle_graph(3), cycle_graph(9)):
            assert select_backend(pattern) == "matrix"
            assert isinstance(compile_plan(pattern), MatrixPlan)

    def test_dense_small_pattern_picks_brute(self):
        # K5 has tw = 4: the DP explores n_G^5 states anyway, so the
        # decomposition buys nothing.  The old 5-vertex cutoff got this
        # right by accident; K6 and K7 it got wrong.
        for n in (4, 5, 6, 7):
            assert select_backend(complete_graph(n)) == "brute"

    def test_sparse_large_pattern_picks_dp(self):
        # Trees and grids above the tiny limit: tw + 2 <= n.
        assert select_backend(star_graph(4)) == "dp"
        assert select_backend(grid_graph(2, 4)) == "dp"
        assert select_backend(grid_graph(3, 3)) == "dp"

    def test_tiny_patterns_stay_brute(self):
        # Edge plus isolated vertex: too small for any decomposition to pay.
        pattern = Graph(vertices=[0, 1, 2], edges=[(0, 1)])
        assert select_backend(pattern) == "brute"

    def test_disconnected_pattern_never_matrix(self):
        assert select_backend(two_triangles()) != "matrix"

    def test_empty_pattern_constant(self):
        plan = compile_plan(Graph())
        assert isinstance(plan, ConstantPlan)
        assert plan.execute(random_graph(5, 0.5, seed=1)) == 1
        assert plan.execute(Graph()) == 1


class TestPlanCorrectness:
    HOST = random_graph(9, 0.45, seed=41)

    @pytest.mark.parametrize(
        "pattern",
        [
            path_graph(1),
            path_graph(2),
            path_graph(5),
            cycle_graph(3),
            cycle_graph(6),
            complete_graph(4),
            star_graph(4),
            grid_graph(2, 3),
            two_triangles(),
        ],
        ids=lambda g: f"n{g.num_vertices()}m{g.num_edges()}",
    )
    def test_matches_brute_oracle(self, pattern):
        plan = compile_plan(pattern)
        assert plan.execute(self.HOST) == count_homomorphisms_brute(
            pattern, self.HOST,
        )

    def test_empty_target(self):
        for pattern in (path_graph(3), cycle_graph(4), grid_graph(2, 3)):
            assert compile_plan(pattern).execute(Graph()) == 0

    def test_matrix_plan_falls_back_under_restrictions(self):
        pattern = path_graph(2)
        target = cycle_graph(4)
        plan = compile_plan(pattern)
        assert isinstance(plan, MatrixPlan)
        allowed = {0: frozenset({0})}
        assert plan.execute(target, allowed=allowed) == (
            count_homomorphisms_brute(pattern, target, allowed=allowed)
        )

    def test_dp_plan_respects_restrictions(self):
        pattern = grid_graph(2, 3)
        target = random_graph(7, 0.5, seed=42)
        allowed = {(0, 0): frozenset({0, 1}), (1, 2): frozenset({2, 3, 4})}
        plan = compile_dp_plan(pattern)
        assert plan.execute(target, allowed=allowed) == (
            count_homomorphisms_brute(pattern, target, allowed=allowed)
        )


class TestDPPlanTape:
    def test_tape_matches_brute_force(self):
        # count_homomorphisms_dp runs this same tape, so the independent
        # reference is backtracking search.
        for seed in range(5):
            pattern = random_graph(6, 0.5, seed=seed)
            plan = compile_dp_plan(pattern)
            assert isinstance(plan, DPPlan)
            for target_seed in range(3):
                target = random_graph(7, 0.45, seed=100 + target_seed)
                assert plan.execute(target) == count_homomorphisms_brute(
                    pattern, target,
                )

    def test_width_and_nodes_recorded(self):
        plan = compile_dp_plan(grid_graph(2, 4))
        assert plan.width == 2
        assert plan.node_count == len(plan.instructions)

    def test_plan_reuse_is_stateless(self):
        plan = compile_plan(grid_graph(2, 3))
        target = random_graph(8, 0.4, seed=7)
        first = plan.execute(target)
        assert plan.execute(target) == first

    def test_describe_mentions_kind(self):
        assert "dp" in compile_dp_plan(star_graph(4)).describe()
        assert isinstance(compile_plan(complete_graph(5)), BrutePlan)

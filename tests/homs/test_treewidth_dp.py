"""Unit tests for the treewidth-DP homomorphism counter — cross-checked
against brute force on randomised instances."""

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.homs import (
    count_homomorphisms_brute,
    count_homomorphisms_dp,
    prepared_pattern,
)
from repro.homs.treewidth_dp import FORGET, INTRODUCE, JOIN, LEAF, compile_tape
from repro.treewidth import treewidth

# A pattern whose elimination-ordering decomposition has nested bags and
# a bag with three children (compute_mix's ``dp11``).
DP11 = Graph(edges=[
    (0, 1), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (2, 4), (3, 6),
    (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
])


def walk_tape(pattern, tape):
    """Run ``tape`` symbolically: every table is its bag (pattern labels
    in codec order) plus, per root-to-leaf path below it, the vertices
    introduced on that path.  Asserts the tape's invariants and returns
    ``(separator JOINs as (bag, child bag) pairs, edges checked at
    INTRODUCE, largest bag)``."""
    encode = pattern.to_indexed().codec.encode
    stack, joins, checked, largest = [], [], set(), 0
    for instruction in tape:
        op = instruction[0]
        if op == LEAF:
            stack.append(((), [set()]))
        elif op == INTRODUCE:
            vertex, position, neighbours = instruction[1:4]
            bag, paths = stack.pop()
            assert vertex not in bag
            assert all(vertex not in path for path in paths), (
                f"{vertex!r} introduced twice on one root-to-leaf path"
            )
            assert list(neighbours) == [
                i for i, u in enumerate(bag) if pattern.has_edge(u, vertex)
            ]
            checked |= {frozenset((bag[i], vertex)) for i in neighbours}
            new_bag = tuple(sorted(bag + (vertex,), key=encode))
            assert new_bag.index(vertex) == position
            largest = max(largest, len(new_bag))
            stack.append((new_bag, [path | {vertex} for path in paths]))
        elif op == FORGET:
            bag, paths = stack.pop()
            drop = instruction[1]
            stack.append((bag[:drop] + bag[drop + 1:], paths))
        else:
            assert op == JOIN
            child, child_paths = stack.pop()
            bag, paths = stack.pop()
            if len(instruction) == 1:
                assert child == bag
            else:
                assert child == tuple(bag[p] for p in instruction[1])
                joins.append((bag, child))
            stack.append((bag, paths + child_paths))
    (root,) = stack
    assert root[0] == ()
    return joins, checked, largest


class TestTapeShape:
    """The tape is compiled straight from the tree decomposition: each
    child joins its bag on their separator."""

    def test_dp11_joins_children_on_their_separators(self):
        tape = compile_tape(DP11, prepared_pattern(DP11))
        joins, _, _ = walk_tape(DP11, tape)
        assert joins, "dp11 has a bag with several children"
        for bag, child in joins:
            assert set(child) < set(bag)

    def test_grid_tape_has_no_join(self):
        grid = grid_graph(2, 3)
        tape = compile_tape(grid, prepared_pattern(grid))
        walk_tape(grid, tape)
        assert all(instruction[0] != JOIN for instruction in tape)

    def test_tape_ends_on_one_empty_table(self):
        cycle = cycle_graph(5)
        tape = compile_tape(cycle, prepared_pattern(cycle))
        walk_tape(cycle, tape)
        # The root bag's vertices are all forgotten: the count is a scalar.
        assert tape[-1][0] == FORGET
        introduced = sum(instruction[0] == INTRODUCE for instruction in tape)
        forgotten = sum(instruction[0] == FORGET for instruction in tape)
        assert introduced == forgotten

    def test_tape_width_matches_treewidth(self):
        for graph in (cycle_graph(6), grid_graph(2, 4), complete_graph(4)):
            tape = compile_tape(graph, prepared_pattern(graph))
            _, _, largest = walk_tape(graph, tape)
            assert largest == treewidth(graph) + 1

    def test_tape_uses_every_instruction_kind(self):
        grid = grid_graph(2, 3)
        kinds = {
            instruction[0]
            for instruction in compile_tape(grid, prepared_pattern(grid))
        }
        assert kinds <= {LEAF, INTRODUCE, FORGET, JOIN}
        assert {LEAF, INTRODUCE, FORGET} <= kinds

    @pytest.mark.parametrize(
        "pattern", [path_graph(4), star_graph(4), DP11], ids=["P4", "S4", "dp11"],
    )
    def test_tape_is_a_postorder_stack_program(self, pattern):
        # Every child table is on the stack before its parent consumes it.
        depth = 0
        for instruction in compile_tape(pattern, prepared_pattern(pattern)):
            op = instruction[0]
            if op == LEAF:
                depth += 1
            elif op == JOIN:
                assert depth >= 2
                depth -= 1
            else:
                assert depth >= 1
        assert depth == 1

    @pytest.mark.parametrize(
        "pattern",
        [
            path_graph(5),
            cycle_graph(6),
            complete_graph(4),
            star_graph(4),
            grid_graph(3, 3),
            Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
            star_graph(3),
            DP11,
            Graph(edges=[(0, 1), ("a", "b"), ("b", "c")], vertices=["iso"]),
            random_graph(7, 0.45, seed=0),
            random_graph(8, 0.4, seed=5),
        ],
        ids=[
            "P5", "C6", "K4", "S4", "grid3x3", "diamond", "claw", "dp11",
            "disconnected", "random7", "random8",
        ],
    )
    def test_every_edge_checked_within_the_width(self, pattern):
        decomposition = prepared_pattern(pattern)
        tape = compile_tape(pattern, decomposition)
        _, checked, largest = walk_tape(pattern, tape)
        assert checked == {frozenset(edge) for edge in pattern.edges()}
        assert largest == decomposition.width + 1 == treewidth(pattern) + 1
        # Each bag adds O(width) instructions.
        assert len(tape) <= 4 * largest * len(decomposition.bags)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "pattern_factory",
        [
            lambda: path_graph(4),
            lambda: cycle_graph(4),
            lambda: cycle_graph(5),
            lambda: star_graph(3),
            lambda: complete_graph(3),
            lambda: grid_graph(2, 3),
        ],
        ids=["P4", "C4", "C5", "S3", "K3", "grid2x3"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, pattern_factory, seed):
        pattern = pattern_factory()
        target = random_graph(6, 0.5, seed=seed)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )

    def test_disconnected_pattern(self):
        pattern = Graph(edges=[(0, 1), ("a", "b"), ("b", "c")])
        target = random_graph(5, 0.6, seed=3)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )

    def test_pattern_with_isolated_vertex(self):
        pattern = path_graph(3)
        pattern.add_vertex("iso")
        target = random_graph(5, 0.5, seed=4)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )


class TestEdgeCases:
    def test_empty_pattern(self):
        assert count_homomorphisms_dp(Graph(), cycle_graph(4)) == 1

    def test_empty_target(self):
        assert count_homomorphisms_dp(path_graph(2), Graph()) == 0

    def test_single_vertex(self):
        assert count_homomorphisms_dp(Graph(vertices=[0]), complete_graph(4)) == 4

    def test_allowed_restriction(self):
        pattern = path_graph(3)
        target = cycle_graph(5)
        allowed = {0: frozenset({0, 1}), 2: frozenset({2})}
        assert count_homomorphisms_dp(pattern, target, allowed=allowed) == (
            count_homomorphisms_brute(pattern, target, allowed=allowed)
        )

    def test_allowed_empty(self):
        pattern = path_graph(2)
        target = cycle_graph(4)
        assert count_homomorphisms_dp(
            pattern, target, allowed={0: frozenset()},
        ) == 0


class TestPreparedPattern:
    def test_reuse_across_targets(self):
        pattern = cycle_graph(5)
        decomposition = prepared_pattern(pattern)
        for seed in range(3):
            target = random_graph(6, 0.5, seed=seed)
            assert count_homomorphisms_dp(
                pattern, target, decomposition=decomposition,
            ) == (
                count_homomorphisms_brute(pattern, target)
            )

    def test_larger_pattern_feasible(self):
        """A 9-vertex treewidth-2 pattern against an 8-vertex target —
        infeasible regions for naive |V(G)|^|V(H)| enumeration shrink to
        |V(G)|^3 table rows for the DP."""
        pattern = grid_graph(2, 4)  # 8 vertices, tw 2
        target = random_graph(8, 0.5, seed=7)
        value = count_homomorphisms_dp(pattern, target)
        assert value >= 0
        # Spot-check against brute force (still feasible at this size).
        assert value == count_homomorphisms_brute(pattern, target)

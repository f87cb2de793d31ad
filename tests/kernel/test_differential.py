"""Differential suite: the numpy kernel tier against the pure oracle.

Every vectorised layer (DP tape, WL refinement, bitset pools, matrix
walks) is pinned to each backend in turn via
:func:`repro.kernel.force_backend` and must agree exactly — counts are
equal integers, WL results are equal *partitions* (ids are
backend-local).  Hypothesis drives the graph shapes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernel
from repro.graphs import Graph, path_graph, random_graph, star_graph
from repro.engine import compile_answer_plan
from repro.homs.brute_force import count_homomorphisms_brute, enumerate_homomorphisms
from repro.homs.treewidth_dp import (
    compile_tape,
    count_homomorphisms_dp,
    prepared_pattern,
    run_tape,
)
from repro.queries import parse_query
from repro.wl.refinement import indexed_colour_partition

pytestmark = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy kernel tier not importable",
)


@st.composite
def patterns(draw, max_vertices=6):
    """Connected sparse patterns (tree plus a few chords)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    for v in range(1, n):
        graph.add_edge(v, draw(st.integers(min_value=0, max_value=v - 1)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            graph.add_edge(i, j)
    return graph


@st.composite
def targets(draw, max_vertices=36):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.sampled_from((0.1, 0.2, 0.35)))
    return random_graph(n, p, seed=seed)


def both_backends(fn):
    with kernel.force_backend("python"):
        oracle = fn()
    with kernel.force_backend("numpy"):
        vectorised = fn()
    return oracle, vectorised


def as_partition(colours):
    """Canonical form: class ids in first-appearance order."""
    seen = {}
    return [seen.setdefault(c, len(seen)) for c in colours]


class TestDPTape:
    @settings(max_examples=40, deadline=None)
    @given(pattern=patterns(), target=targets())
    def test_counts_agree(self, pattern, target):
        oracle, vectorised = both_backends(
            lambda: count_homomorphisms_dp(pattern, target),
        )
        assert oracle == vectorised

    @settings(max_examples=25, deadline=None)
    @given(pattern=patterns(max_vertices=5), target=targets(max_vertices=24),
           data=st.data())
    def test_allowed_masks_agree(self, pattern, target, data):
        hosts = target.vertices()
        if not hosts:
            return
        allowed = {
            v: frozenset(data.draw(
                st.sets(st.sampled_from(hosts), min_size=0, max_size=len(hosts)),
            ))
            for v in pattern.vertices()[:2]
        }
        oracle, vectorised = both_backends(
            lambda: count_homomorphisms_dp(pattern, target, allowed=allowed),
        )
        assert oracle == vectorised


class TestRelationChecks:
    """Tapes that check 0/1 relations at INTRODUCE, as the answer plan's
    component tables are checked.  Such a tape runs the pure loop on
    either tier, so a filtered enumeration is the oracle here."""

    @settings(max_examples=30, deadline=None)
    @given(pattern=patterns(max_vertices=5), target=targets(max_vertices=20),
           data=st.data())
    def test_random_relations_agree_with_a_filtered_enumeration(
        self, pattern, target, data,
    ):
        n = target.num_vertices()
        if n == 0:
            return
        # Scopes are edges and vertices of the pattern (cliques, so each
        # fits one bag), in either order: checks land on every slot.
        scopes = [
            tuple(data.draw(st.permutations(edge)))
            for edge in pattern.edges()[:2]
        ] + [(pattern.vertices()[-1],)]
        pools = st.integers(min_value=0, max_value=(1 << n) - 1)
        relations = [
            {
                rest: data.draw(pools)
                for rest in (
                    [(a,) for a in range(n)] if len(scope) == 2 else [()]
                )
            }
            for scope in scopes
        ]
        tape = compile_tape(pattern, prepared_pattern(pattern), scopes)
        width = prepared_pattern(pattern).width()
        oracle, vectorised = both_backends(
            lambda: run_tape(tape, width, target, relations=relations),
        )
        encode = target.to_indexed().codec.encode

        def passes(hom):
            for scope, relation in zip(scopes, relations):
                images = [encode(hom[v]) for v in scope]
                if not relation.get(tuple(images[:-1]), 0) >> images[-1] & 1:
                    return False
            return True

        expected = sum(
            1 for hom in enumerate_homomorphisms(pattern, target) if passes(hom)
        )
        assert oracle == vectorised == expected

    @settings(max_examples=30, deadline=None)
    @given(text=st.sampled_from([
        "q(x) :- E(x, y)",
        "q(x1, x2) :- E(x1, x2), E(x1, y), E(x2, y)",
        "q(x1, x2, x3) :- E(x1, y), E(x2, y), E(x3, y)",
        "q(x1, x2, x3) :- E(x1, y1), E(y1, y2), E(y2, x2), E(y2, x3)",
        "q(x1, x2, x3) :- E(x1, y1), E(x2, y1), E(x2, y2), E(x3, y2)",
    ]), target=targets(max_vertices=36))
    def test_answer_plan_tiers_agree(self, text, target):
        plan = compile_answer_plan(parse_query(text))
        oracle, vectorised = both_backends(lambda: plan.execute(target))
        assert oracle == vectorised

    def test_relation_checks_run_the_pure_tape(self, monkeypatch):
        from repro.kernel import dp_numpy

        plan = compile_answer_plan(parse_query("q(x1, x2) :- E(x1, y), E(x2, y)"))
        target = random_graph(40, 0.3, seed=3)
        with kernel.force_backend("python"):
            oracle = plan.execute(target)

        def vectorised(*args, **kwargs):
            raise AssertionError("a tape with relations reached the numpy tier")

        monkeypatch.setattr(dp_numpy, "execute_tape", vectorised)
        with kernel.force_backend("numpy"):
            assert plan.execute(target) == oracle
        assert plan.describe_for(target).endswith("/python")


class TestBruteBitsets:
    @settings(max_examples=40, deadline=None)
    @given(pattern=patterns(max_vertices=4), target=targets())
    def test_counts_agree(self, pattern, target):
        oracle, vectorised = both_backends(
            lambda: count_homomorphisms_brute(pattern, target),
        )
        assert oracle == vectorised

    def test_star_pattern_hits_leaf_kernel(self):
        # Unpinned last level + pinned second-to-last: the vectorised
        # leaf count must run (wide pools, above the small-pool guard).
        pattern = star_graph(2)
        target = random_graph(80, 0.6, seed=5)
        oracle, vectorised = both_backends(
            lambda: count_homomorphisms_brute(pattern, target),
        )
        assert oracle == vectorised


class TestWLRefinement:
    @settings(max_examples=40, deadline=None)
    @given(target=targets(max_vertices=60))
    def test_partitions_agree(self, target):
        indexed = target.to_indexed()
        oracle, vectorised = both_backends(
            lambda: as_partition(indexed_colour_partition(indexed)),
        )
        assert oracle == vectorised

    @settings(max_examples=25, deadline=None)
    @given(target=targets(max_vertices=40), data=st.data())
    def test_seeded_partitions_agree(self, target, data):
        indexed = target.to_indexed()
        if indexed.n == 0:
            return
        initial = [
            data.draw(st.integers(min_value=0, max_value=2))
            for _ in range(indexed.n)
        ]
        oracle, vectorised = both_backends(
            lambda: as_partition(indexed_colour_partition(indexed, initial)),
        )
        assert oracle == vectorised

    def test_long_path_agrees(self):
        # Θ(n) rounds: exercises the round budget + seeded worklist resume.
        indexed = path_graph(400).to_indexed()
        oracle, vectorised = both_backends(
            lambda: as_partition(indexed_colour_partition(indexed)),
        )
        assert oracle == vectorised


class TestBitsetPrimitives:
    def test_pack_roundtrip_and_popcounts(self):
        import numpy

        from repro.kernel import bitset_numpy

        graph = random_graph(130, 0.3, seed=9).to_indexed()
        packed = bitset_numpy.pack_bitsets(graph)
        assert packed.shape == (130, bitset_numpy.word_count(130))
        pure = graph.bitsets()
        for v in range(graph.n):
            assert bitset_numpy.unpack_mask_int(packed[v]) == pure[v]
        counts = bitset_numpy.popcount_rows(packed)
        assert counts.tolist() == [pool.bit_count() for pool in pure]
        mask = (1 << 130) - 1 - (1 << 64)
        row = bitset_numpy.pack_mask(mask, 130)
        assert bitset_numpy.unpack_mask_int(row) == mask
        members = bitset_numpy.expand_mask(mask, 130)
        assert members.tolist() == [i for i in range(130) if i != 64]
        assert isinstance(packed[0, 0], numpy.uint64)

    def test_leaf_pair_count_matches_bit_loop(self):
        from repro.kernel import bitset_numpy

        graph = random_graph(100, 0.4, seed=10).to_indexed()
        packed = bitset_numpy.pack_bitsets(graph)
        pure = graph.bitsets()
        base = pure[0] | pure[1]
        candidates = bitset_numpy.expand_mask(pure[2] | pure[3], graph.n)
        expected = sum(
            (base & pure[int(c)]).bit_count() for c in candidates
        )
        got = bitset_numpy.leaf_pair_count(
            candidates, packed, bitset_numpy.pack_mask(base, graph.n),
        )
        assert got == expected


class TestMatrixTier:
    @settings(max_examples=25, deadline=None)
    @given(target=targets(max_vertices=20),
           length=st.integers(min_value=0, max_value=6))
    def test_walk_counts_agree(self, target, length):
        from repro.graphs.matrices import count_walks

        oracle, vectorised = both_backends(lambda: count_walks(target, length))
        assert oracle == vectorised

    @settings(max_examples=25, deadline=None)
    @given(target=targets(max_vertices=16),
           length=st.integers(min_value=3, max_value=6))
    def test_closed_walk_counts_agree(self, target, length):
        from repro.graphs.matrices import count_closed_walks

        oracle, vectorised = both_backends(
            lambda: count_closed_walks(target, length),
        )
        assert oracle == vectorised

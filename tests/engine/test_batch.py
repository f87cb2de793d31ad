"""Unit tests for batched evaluation and the facade's cache behaviour."""

from repro.engine import HomEngine
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
)
from repro.homs import count_homomorphisms_brute


def _patterns():
    return [path_graph(3), cycle_graph(4), complete_graph(3), grid_graph(2, 3)]


def _targets():
    return [random_graph(6, 0.4, seed=200 + i) for i in range(5)]


class TestBatch:
    def test_matches_individual_counts(self):
        engine = HomEngine()
        patterns, targets = _patterns(), _targets()
        rows = engine.count_batch(patterns, targets)
        assert rows == [
            [count_homomorphisms_brute(p, t) for t in targets]
            for p in patterns
        ]

    def test_empty_inputs(self):
        engine = HomEngine()
        assert engine.count_batch([], _targets()) == []
        assert engine.count_batch(_patterns(), []) == [[], [], [], []]

    def test_plan_compiled_once_per_pattern(self):
        engine = HomEngine()
        engine.count_batch(_patterns(), _targets())
        assert engine.plans_compiled == len(_patterns())

    def test_warm_batch_recomputes_nothing(self):
        engine = HomEngine()
        patterns, targets = _patterns(), _targets()
        cold = engine.count_batch(patterns, targets)
        executed = engine.counts_executed
        warm = engine.count_batch(patterns, targets)
        assert warm == cold
        assert engine.counts_executed == executed

    def test_restricted_batch(self):
        engine = HomEngine()
        allowed = {0: frozenset({0, 1})}
        patterns = [path_graph(3), cycle_graph(4)]
        targets = _targets()[:2]
        rows = engine.count_batch(patterns, targets, allowed=allowed)
        assert rows == [
            [count_homomorphisms_brute(p, t, allowed=allowed) for t in targets]
            for p in patterns
        ]

    def test_pool_path_matches_sequential(self):
        sequential = HomEngine().count_batch(_patterns(), _targets())
        pooled_engine = HomEngine()
        pooled = pooled_engine.count_batch(
            _patterns(), _targets(), processes=2,
        )
        assert pooled == sequential
        # Pool results are folded back into the cache: a sequential repeat
        # is served without executing any plan.
        executed = pooled_engine.counts_executed
        assert pooled_engine.count_batch(_patterns(), _targets()) == sequential
        assert pooled_engine.counts_executed == executed

    def test_thread_pool_matches_sequential(self):
        sequential = HomEngine().count_batch(_patterns(), _targets())
        threaded_engine = HomEngine()
        threaded = threaded_engine.count_batch(
            _patterns(), _targets(), processes=2, pool="thread",
        )
        assert threaded == sequential
        executed = threaded_engine.counts_executed
        assert threaded_engine.count_batch(_patterns(), _targets()) == (
            sequential
        )
        assert threaded_engine.counts_executed == executed

    def test_pool_flavour_validated(self):
        import pytest

        with pytest.raises(ValueError):
            HomEngine().count_batch(
                _patterns(), _targets(), processes=2, pool="fibers",
            )

    def test_automatic_pool_choice_follows_kernel(self):
        from repro import kernel
        from repro.engine.batch import _pick_pool

        small = [random_graph(6, 0.3, seed=1)]
        large = [random_graph(64, 0.1, seed=2)]
        if kernel.numpy_available():
            assert _pick_pool(small) == "process"
            assert _pick_pool(large) == "thread"
        with kernel.force_backend("python"):
            assert _pick_pool(large) == "process"


class TestFacade:
    def test_hom_vector(self):
        engine = HomEngine()
        target = random_graph(7, 0.5, seed=77)
        patterns = _patterns()
        assert engine.hom_vector(patterns, target) == tuple(
            count_homomorphisms_brute(p, target) for p in patterns
        )

    def test_cached_count_never_computes(self):
        engine = HomEngine()
        pattern, target = cycle_graph(4), random_graph(6, 0.5, seed=6)
        assert engine.cached_count(pattern, target) is None
        assert engine.counts_executed == 0
        value = engine.count(pattern, target)
        assert engine.cached_count(pattern, target) == value

    def test_stats_summary_keys(self):
        engine = HomEngine()
        engine.count(path_graph(2), random_graph(4, 0.5, seed=1))
        summary = engine.stats_summary()
        for key in (
            "plan_hits",
            "count_hits",
            "count_requests",
            "plans_compiled",
            "counts_executed",
            "counts_cached",
        ):
            assert key in summary

"""The :class:`HomEngine` facade: compile once, count many.

``HomEngine`` is the single entry point the rest of the library delegates
to for homomorphism counts.  It owns

* a plan cache (canonical-form keys → compiled
  :class:`~repro.engine.plans.CountPlan`, and query canonical keys →
  :class:`~repro.engine.plans.AnswerPlan`),
* a count cache (``pattern × target × restriction`` → int; an answer
  count keys on its query's counting-minimal core instead of a pattern),
* batch evaluation with optional multiprocessing
  (:mod:`repro.engine.batch`).

A module-level default engine backs ``count_homomorphisms(method='auto')``
so every existing call site transparently gains plan reuse and caching;
code with special lifetime requirements (benchmarks, tests measuring cold
behaviour) constructs private instances.

Engines are thread-safe: the cache tier locks every operation and the
work counters are updated under a lock, so the counting service's worker
pool shares one engine.  Concurrent misses on the same key may both
compute (the result is identical either way); the caches and statistics
never corrupt.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Mapping, Sequence

from repro.engine.batch import run_batch
from repro.engine.cache import (
    DEFAULT_CANONICAL_LIMIT,
    CacheStats,
    EngineCache,
    restriction_key,
    target_key,
)
from repro.engine.plans import (
    AnswerPlan,
    CountPlan,
    compile_answer_plan,
    compile_plan,
)
from repro.graphs.graph import Graph, Vertex
from repro.obs import child_span, family_snapshot, registry


class HomEngine:
    """A batched, cached, multi-backend homomorphism-count engine."""

    def __init__(
        self,
        plan_capacity: int = 512,
        count_capacity: int = 65536,
        canonical_limit: int = DEFAULT_CANONICAL_LIMIT,
        processes: int | None = None,
        store=None,
    ) -> None:
        self._cache = EngineCache(
            plan_capacity=plan_capacity,
            count_capacity=count_capacity,
            canonical_limit=canonical_limit,
            store=store,
        )
        self.processes = processes
        self.plans_compiled = 0
        self.counts_executed = 0
        self._counter_lock = threading.Lock()

    @property
    def store(self):
        """The persistent tier under the LRUs, or ``None``."""
        return self._cache.store

    def _note_plan_compiled(self) -> None:
        with self._counter_lock:
            self.plans_compiled += 1

    def _note_count_executed(self) -> None:
        with self._counter_lock:
            self.counts_executed += 1

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_for(self, pattern: Graph, parent_span=None) -> CountPlan:
        """The compiled plan for ``pattern`` (cached by canonical form).

        ``parent_span`` nests the cold compile span under a caller-held
        span that is not published in the ambient context (the task
        executors trace with :func:`~repro.obs.trace.leaf_span`).
        """
        key = self._cache.pattern_key(pattern)
        plan = self._cache.lookup_plan(key)
        if plan is None:
            with child_span(
                parent_span, "engine.compile", vertices=pattern.num_vertices(),
            ) as sp:
                plan = compile_plan(pattern)
                sp.annotate(backend=plan.kind)
            self._note_plan_compiled()
            self._cache.store_plan(key, plan)
        return plan

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def _pattern_id(
        self,
        pattern: Graph,
        allowed: Mapping[Vertex, frozenset] | None,
    ) -> tuple:
        # Unrestricted counts are isomorphism-invariant, so canonical keys
        # let relabelled patterns share plans and counts.  An ``allowed``
        # restriction is expressed in the pattern's own labels: two
        # isomorphic patterns with the same restriction mean different
        # things, and the compiled plan (which bakes in pattern vertices
        # for the restriction lookup) is label-bound — so restricted
        # counts key on the exact labelled pattern.
        if allowed is None:
            return self._cache.pattern_key(pattern)
        return ("label", pattern.edge_fingerprint())

    def count(
        self,
        pattern: Graph,
        target: Graph,
        allowed: Mapping[Vertex, frozenset] | None = None,
        target_id: tuple | None = None,
    ) -> int:
        """``|Hom(pattern, target)|`` (restricted by ``allowed``), cached.

        ``target_id`` short-circuits the target fingerprint with a
        precomputed key (the dataset registry stores one per dataset).
        """
        return self.count_detailed(
            pattern, target, allowed=allowed, target_id=target_id,
        )[0]

    def count_detailed(
        self,
        pattern: Graph,
        target: Graph,
        allowed: Mapping[Vertex, frozenset] | None = None,
        target_id: tuple | None = None,
        parent_span=None,
    ) -> tuple[int, bool]:
        """:meth:`count` plus cache provenance: ``(value, from_cache)``.

        The task API's :class:`~repro.api.result.Result` reports the flag;
        one call computes the cache key once, so provenance costs nothing
        over a plain count.  ``parent_span`` nests the cold compile and
        execute spans under a caller-held (non-published) span; the warm
        cache-hit path opens no spans at all.
        """
        pattern_id = self._pattern_id(pattern, allowed)
        if target_id is None:
            target_id = target_key(target)
        key = (pattern_id, target_id, restriction_key(allowed))
        cached = self._cache.lookup_count(key)
        if cached is not None:
            return cached, True
        plan = self._cache.lookup_plan(pattern_id)
        if plan is None:
            with child_span(
                parent_span, "engine.compile", vertices=pattern.num_vertices(),
            ) as sp:
                plan = compile_plan(pattern)
                sp.annotate(backend=plan.kind)
            self._note_plan_compiled()
            self._cache.store_plan(pattern_id, plan)
        with child_span(parent_span, "engine.execute", backend=plan.kind):
            value = plan.execute(target, allowed=allowed)
        self._note_count_executed()
        self._cache.store_count(key, value)
        return value, False

    def cached_count(
        self,
        pattern: Graph,
        target: Graph,
        allowed: Mapping[Vertex, frozenset] | None = None,
        target_id: tuple | None = None,
    ) -> int | None:
        """The cached count, or ``None`` — never computes anything."""
        key = (
            self._pattern_id(pattern, allowed),
            target_id if target_id is not None else target_key(target),
            restriction_key(allowed),
        )
        return self._cache.lookup_count(key)

    def peek(self, pattern: Graph, target_id: tuple) -> tuple[int, CountPlan] | None:
        """The warm ``(count, plan)`` of an unrestricted count from memory
        alone, or ``None`` (:meth:`EngineCache.peek`); ``target_id`` is
        the target's cache key, as :meth:`count` takes it."""
        return self._cache.peek(pattern, target_id)

    # ------------------------------------------------------------------
    # answer counts
    # ------------------------------------------------------------------
    def answer_plan_for(self, query, parent_span=None) -> AnswerPlan:
        """The compiled :class:`AnswerPlan` of a
        :class:`~repro.queries.query.ConjunctiveQuery`, cached under the
        query's canonical key: the counting-minimal core is computed once
        per query.  A full core's hom-count plan is this engine's, shared
        with hom counts of the core graph."""
        key = ("answer", query.canonical_key())
        plan = self._cache.lookup_plan(key)
        if plan is None:
            with child_span(
                parent_span, "engine.compile", vertices=query.num_variables(),
            ) as sp:
                plan = compile_answer_plan(
                    query,
                    plan_for=partial(self.plan_for, parent_span=sp),
                    key_for=self._cache.pattern_key,
                )
                sp.annotate(backend=plan.kind)
            self._note_plan_compiled()
            self._cache.store_plan(key, plan)
        return plan

    def answer_count_detailed(
        self,
        query,
        target: Graph,
        target_id: tuple | None = None,
        parent_span=None,
    ) -> tuple[int, bool, AnswerPlan]:
        """``(|Ans(query, target)|, from_cache, plan)`` through the query's
        :class:`AnswerPlan`.

        The count is cached under the plan's ``count_id`` — the
        counting-minimal core, which counting-equivalent queries share
        (Lemma 44) — so a repeat or a rephrasing is a count-cache hit
        that executes nothing.  ``target_id`` and ``parent_span`` are as
        in :meth:`count_detailed`.
        """
        plan = self.answer_plan_for(query, parent_span)
        if target_id is None:
            target_id = target_key(target)
        key = (plan.count_id, target_id, None)
        cached = self._cache.lookup_count(key)
        if cached is not None:
            return cached, True, plan
        with child_span(parent_span, "engine.execute", backend=plan.kind):
            value = plan.execute(target)
        self._note_count_executed()
        self._cache.store_count(key, value)
        return value, False, plan

    def hom_vector(
        self, patterns: Sequence[Graph], target: Graph,
    ) -> tuple[int, ...]:
        """The hom-count profile of ``target`` over ``patterns``."""
        return tuple(self.count(pattern, target) for pattern in patterns)

    def count_batch(
        self,
        patterns: Sequence[Graph],
        targets: Sequence[Graph],
        allowed: Mapping[Vertex, frozenset] | None = None,
        processes: int | None = None,
        pool: str | None = None,
    ) -> list[list[int]]:
        """``rows[i][j] = |Hom(patterns[i], targets[j])|`` with plan reuse.

        ``pool`` ∈ {``'process'``, ``'thread'``, ``None``} picks the
        worker-pool flavour when ``processes > 1`` (``None`` = automatic:
        threads when the numpy kernel tier would carry the counting).
        """
        if processes is None:
            processes = self.processes
        return run_batch(
            self, patterns, targets, allowed=allowed, processes=processes,
            pool=pool,
        )

    def seed_counts(
        self,
        pattern: Graph,
        targets: Sequence[Graph],
        counts: Sequence[int],
    ) -> None:
        """Fold externally computed counts (e.g. pool results) into the cache."""
        pattern_id = self._cache.pattern_key(pattern)
        for target, value in zip(targets, counts):
            self._cache.store_count((pattern_id, target_key(target), None), value)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def stats_summary(self) -> dict[str, int | float]:
        summary = self._cache.stats.snapshot()
        summary["plans_compiled"] = self.plans_compiled
        summary["counts_executed"] = self.counts_executed
        summary["plans_cached"] = len(self._cache.plans)
        summary["counts_cached"] = len(self._cache.counts)
        if self._cache.store is not None:
            for key, value in self._cache.store.stats.snapshot().items():
                summary[f"persistent_{key}"] = value
        return summary

    def reset_stats(self) -> None:
        self._cache.reset_stats()
        with self._counter_lock:
            self.plans_compiled = 0
            self.counts_executed = 0

    def clear(self) -> None:
        """Drop all cached plans and counts (stats are kept)."""
        self._cache.clear()


_default_engine: HomEngine | None = None


def default_engine() -> HomEngine:
    """The process-wide engine behind ``count_homomorphisms(method='auto')``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = HomEngine()
    return _default_engine


def set_default_engine(engine: HomEngine | None) -> HomEngine | None:
    """Swap the process-wide engine (pass ``None`` to reset lazily).

    Returns the previous engine so callers can restore it — used by tests
    and benchmarks that need a cold cache.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous


# ----------------------------------------------------------------------
# metrics export
# ----------------------------------------------------------------------
_EVENT_NAMES = {
    "hits": "hit",
    "misses": "miss",
    "requests": "request",
    "evictions": "eviction",
}


def engine_metric_families(
    engine: HomEngine, label: str = "default",
) -> list[tuple[str, dict]]:
    """One engine's :meth:`~HomEngine.stats_summary` as metric families.

    Collectors call this at scrape time, so the counting hot path pays
    nothing for metrics export; derived ``*_rate`` fields are skipped
    (rates are recomputable from the counters).
    """
    summary = engine.stats_summary()
    events: list[tuple[dict, int | float]] = []
    entries: list[tuple[dict, int | float]] = []
    work: list[tuple[dict, int | float]] = []
    for field, value in summary.items():
        tier, name = "memory", field
        if name.startswith("persistent_"):
            tier, name = "store", name[len("persistent_"):]
        if name.endswith("_rate"):
            continue
        if name in ("plans_compiled", "counts_executed"):
            kind = "compile" if name == "plans_compiled" else "execute"
            work.append(({"engine": label, "kind": kind}, value))
            continue
        if name in ("plans_cached", "counts_cached"):
            cache = "plan" if name == "plans_cached" else "count"
            entries.append(({"engine": label, "cache": cache}, value))
            continue
        cache, _, suffix = name.partition("_")
        event = _EVENT_NAMES.get(suffix)
        if cache in ("plan", "count") and event is not None:
            events.append((
                {"engine": label, "tier": tier, "cache": cache, "event": event},
                value,
            ))
    return [
        family_snapshot(
            "repro_engine_cache_events_total", "counter", events,
            help="Engine cache lookups by tier, cache, and outcome.",
        ),
        family_snapshot(
            "repro_engine_cache_entries", "gauge", entries,
            help="Live entries in the in-memory plan and count caches.",
        ),
        family_snapshot(
            "repro_engine_work_total", "counter", work,
            help="Plans compiled and plan executions run by the engine.",
        ),
    ]


def _default_engine_collector() -> list[tuple[str, dict]]:
    # Reads the module global at scrape time, so swapping engines with
    # set_default_engine (tests, benchmarks) is automatically reflected.
    if _default_engine is None:
        return []
    return engine_metric_families(_default_engine, label="default")


registry().register_collector(_default_engine_collector)

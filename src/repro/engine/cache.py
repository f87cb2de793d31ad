"""Caching layer for the counting engine.

Two caches, one policy:

* the **plan cache** memoises compiled :class:`~repro.engine.plans.CountPlan`
  objects behind *canonical-form* keys, so isomorphic patterns — however
  they are labelled — share one compilation;
* the **count cache** memoises finished counts behind
  ``(pattern key, target key, restriction key)`` triples.

Both are bounded LRU maps; hit/miss/eviction counters feed the
``repro engine-stats`` CLI and the determinism tests (a warm second pass
must recompute nothing).

Every cache operation is guarded by a re-entrant lock, so one
:class:`EngineCache` (and therefore one engine) can be shared by the
service's worker threads without corrupting entries or statistics.

An optional **persistent store** (duck-typed; see
:class:`repro.service.store.PersistentStore`) sits *under* the LRU tier:
in-memory misses consult the store before reporting ``None``, and every
write goes through to it, so compiled plans and finished counts survive
process restarts.  The store keeps its own :class:`CacheStats`; the memory
counters here are unchanged by its presence.

Canonicalisation is individualisation–refinement and therefore exponential
on highly symmetric graphs, so patterns above ``canonical_limit`` vertices
fall back to the label-level :meth:`~repro.graphs.graph.Graph.edge_fingerprint`
— still a sound cache key, just not isomorphism-invariant.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.errors import EngineError
from repro.graphs.canonical import canonical_form
from repro.graphs.graph import Graph, Vertex

# Above this many vertices, canonical forms may branch factorially on
# symmetric colour classes; label-level fingerprints take over.
DEFAULT_CANONICAL_LIMIT = 6

_MISSING = object()


@dataclass
class CacheStats:
    """Counters for one :class:`EngineCache`."""

    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    count_hits: int = 0
    count_misses: int = 0
    count_evictions: int = 0

    @property
    def plan_requests(self) -> int:
        return self.plan_hits + self.plan_misses

    @property
    def count_requests(self) -> int:
        return self.count_hits + self.count_misses

    @property
    def count_hit_rate(self) -> float:
        total = self.count_requests
        return self.count_hits / total if total else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_requests": self.plan_requests,
            "plan_evictions": self.plan_evictions,
            "count_hits": self.count_hits,
            "count_misses": self.count_misses,
            "count_requests": self.count_requests,
            "count_evictions": self.count_evictions,
            "count_hit_rate": round(self.count_hit_rate, 4),
        }

    def reset(self) -> None:
        self.plan_hits = self.plan_misses = self.plan_evictions = 0
        self.count_hits = self.count_misses = self.count_evictions = 0


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise EngineError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.evictions = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


def pattern_key(
    pattern: Graph, canonical_limit: int = DEFAULT_CANONICAL_LIMIT,
) -> tuple:
    """Cache identity of a pattern: canonical form when affordable."""
    if pattern.num_vertices() <= canonical_limit:
        return ("canon", canonical_form(pattern))
    return ("label", pattern.edge_fingerprint())


def target_key(target: Graph) -> tuple:
    """Cache identity of a target (label-level; targets can be large)."""
    return ("label", target.edge_fingerprint())


def restriction_key(
    allowed: Mapping[Vertex, frozenset] | None,
) -> Hashable:
    """Hashable identity of an ``allowed`` candidate restriction."""
    if allowed is None:
        return None
    return frozenset((v, frozenset(pool)) for v, pool in allowed.items())


class EngineCache:
    """Plan + count caches with shared statistics."""

    def __init__(
        self,
        plan_capacity: int = 512,
        count_capacity: int = 65536,
        canonical_limit: int = DEFAULT_CANONICAL_LIMIT,
        store=None,
    ) -> None:
        self.canonical_limit = canonical_limit
        self.plans = LRUCache(plan_capacity)
        self.counts = LRUCache(count_capacity)
        # Canonicalisation is the only expensive key ingredient, so it is
        # memoised behind the O(n + m) label fingerprint: counting the same
        # pattern object against many targets canonicalises it once.
        self._canonical_keys = LRUCache(4 * plan_capacity)
        self.stats = CacheStats()
        # Persistent tier: any object with load_plan/save_plan and
        # load_count/save_count taking the same keys the LRUs use.
        self.store = store
        self._lock = threading.RLock()

    def pattern_key(self, pattern: Graph) -> tuple:
        if pattern.num_vertices() > self.canonical_limit:
            return ("label", pattern.edge_fingerprint())
        fingerprint = pattern.edge_fingerprint()
        with self._lock:
            key = self._canonical_keys.get(fingerprint)
        if key is None:
            key = ("canon", canonical_form(pattern))
            with self._lock:
                self._canonical_keys.put(fingerprint, key)
        return key

    def lookup_plan(self, key: tuple):
        with self._lock:
            plan = self.plans.get(key)
            if plan is not None:
                self.stats.plan_hits += 1
                return plan
            self.stats.plan_misses += 1
        if self.store is not None:
            plan = self.store.load_plan(key)
            if plan is not None:
                with self._lock:
                    before = self.plans.evictions
                    self.plans.put(key, plan)
                    self.stats.plan_evictions += self.plans.evictions - before
                return plan
        return None

    def store_plan(self, key: tuple, plan) -> None:
        with self._lock:
            before = self.plans.evictions
            self.plans.put(key, plan)
            self.stats.plan_evictions += self.plans.evictions - before
        if self.store is not None:
            self.store.save_plan(key, plan)

    def lookup_count(self, key: tuple) -> int | None:
        with self._lock:
            value = self.counts.get(key)
            if value is not None:
                self.stats.count_hits += 1
                return value
            self.stats.count_misses += 1
        if self.store is not None:
            value = self.store.load_count(key)
            if value is not None:
                with self._lock:
                    before = self.counts.evictions
                    self.counts.put(key, value)
                    self.stats.count_evictions += self.counts.evictions - before
                return value
        return None

    def peek(self, pattern: Graph, target_id: tuple) -> tuple[int, object] | None:
        """The in-memory ``(count, plan)`` of an unrestricted count, or
        ``None``.

        Reads only the LRUs and the memoised canonical key, under the
        lock: it never canonicalises (a pattern whose canonical key is not
        memoised is a miss) and never consults the persistent store, so
        it is safe to call on an event loop.  A hit counts one count hit
        and one plan hit, like the warm :meth:`lookup_count` +
        :meth:`lookup_plan` pair it stands in for; a miss counts nothing,
        since the caller then takes that full path.
        """
        fingerprint = pattern.edge_fingerprint()
        with self._lock:
            if pattern.num_vertices() > self.canonical_limit:
                pattern_id = ("label", fingerprint)
            else:
                pattern_id = self._canonical_keys.get(fingerprint)
                if pattern_id is None:
                    return None
            value = self.counts.get((pattern_id, target_id, None))
            plan = self.plans.get(pattern_id)
            if value is None or plan is None:
                return None
            self.stats.count_hits += 1
            self.stats.plan_hits += 1
        return value, plan

    def store_count(self, key: tuple, value: int) -> None:
        with self._lock:
            before = self.counts.evictions
            self.counts.put(key, value)
            self.stats.count_evictions += self.counts.evictions - before
        if self.store is not None:
            self.store.save_count(key, value)

    def clear(self) -> None:
        with self._lock:
            self.plans.clear()
            self.counts.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats.reset()

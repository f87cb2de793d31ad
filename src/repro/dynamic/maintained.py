"""Maintained counts: handles that stay current across target versions.

:class:`MaintainedCount` subscribes a ``(pattern, DynamicGraph)`` pair.
On every :meth:`~repro.dynamic.graph.DynamicGraph.apply` it refreshes its
value — through the incremental delta path
(:mod:`repro.dynamic.delta`) when the cost model favours it, through a
full engine recompute (cached under the new version's ``target_id``)
otherwise — and records per-version provenance so
:meth:`~repro.dynamic.graph.DynamicGraph.rollback` restores the previous
value without computing anything.

Patterns are factored into connected components first:
``|Hom(H, G)| = |V(G)|^{iso(H)} · Π_c |Hom(H_c, G)|`` for the
multi-vertex components ``H_c``.  This makes disconnected patterns exact
under the edge-wise delta (an isolated pattern vertex sees vertex-count
changes, which no edge delta would), and lets isomorphic components
share engine plans and counts.

:class:`MaintainedAnswerCount` lifts the same machinery to conjunctive
queries via Lemma 22: the answer count is recovered from the power sums
``p_ℓ = |Hom(F_ℓ(H, X), G)|``, each of which is an ordinary maintained
homomorphism count of the ℓ-copy pattern.  Full queries collapse to one
maintained count, Boolean queries to a threshold on one.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Literal

from repro.dynamic.delta import (
    DeltaPlan,
    batch_delta,
    compile_delta_plan,
    estimate_delta_cost,
    estimate_recompute_cost,
)
from repro.dynamic.graph import DynamicGraph, GraphVersion
from repro.errors import UpdateError
from repro.graphs.graph import Graph
from repro.obs import registry as _metrics_registry, span

Mode = Literal["auto", "delta", "recompute"]

# repro_dynamic_refreshes_total children, memoised per refresh method.
_refresh_children: dict[str, object] = {}


def _count_refresh(method: str) -> None:
    child = _refresh_children.get(method)
    if child is None:
        family = _metrics_registry().counter(
            "repro_dynamic_refreshes_total",
            "Maintained-count refreshes, split by delta vs full recompute.",
            labelnames=("method",),
        )
        child = family.labels(method=method)
        _refresh_children[method] = child
    child.inc()

# Per-handle provenance is a ring buffer: enough history to audit
# recent refreshes, bounded for long-running streams.
PROVENANCE_LIMIT = 1024

_UNCOMPILED = object()


class _Component:
    """One multi-vertex connected component of a maintained pattern."""

    __slots__ = ("graph", "_delta_plan")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._delta_plan: DeltaPlan | None | object = _UNCOMPILED

    def delta_plan(self) -> DeltaPlan | None:
        plan = self._delta_plan
        if plan is _UNCOMPILED:
            plan = compile_delta_plan(self.graph.to_indexed())
            self._delta_plan = plan
        return plan


class MaintainedCount:
    """``|Hom(pattern, ·)|`` kept current over a :class:`DynamicGraph`.

    ``mode`` selects the refresh policy: ``'auto'`` applies the delta
    path when it is structurally possible (no target vertex removals,
    pattern small enough to compile) *and* the cost model favours it;
    ``'delta'`` skips the cost model; ``'recompute'`` always recounts
    through the engine.  All three agree on values — the property suite
    asserts it.
    """

    kind = "hom-count"

    def __init__(
        self,
        pattern: Graph,
        dynamic: DynamicGraph,
        engine=None,
        mode: Mode = "auto",
    ) -> None:
        if engine is None:
            from repro.engine import default_engine

            engine = default_engine()
        if mode not in ("auto", "delta", "recompute"):
            raise UpdateError(f"unknown maintenance mode {mode!r}")
        self.pattern = pattern.copy()
        self.dynamic = dynamic
        self.engine = engine
        self.mode = mode
        indexed = self.pattern.to_indexed()
        labels = indexed.codec.labels
        components = indexed.connected_components()
        self.isolated_vertices = sum(1 for c in components if len(c) == 1)
        self._components = [
            _Component(self.pattern.induced_subgraph(labels[i] for i in comp))
            for comp in components
            if len(comp) > 1
        ]
        # digest -> (version, value, per-component counts); bounded to the
        # dynamic graph's retained window so rollback is a pure lookup.
        self._history: OrderedDict[str, tuple[int, int, tuple[int, ...]]] = (
            OrderedDict()
        )
        # Bounded: a long-running update stream must not grow memory.
        self.provenance: deque[dict] = deque(maxlen=PROVENANCE_LIMIT)
        self.method = "initial"
        # Snapshot, compute, and subscribe under the stream's lock so no
        # version can slip between the initial count and the first refresh.
        with dynamic.lock:
            record = dynamic.snapshot()
            counts = self._recompute(record)
            dynamic.stats.initial_computes += 1
            self._commit(record, counts, "initial")
            dynamic.subscribe(self)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        return self._value

    @property
    def version(self) -> int:
        return self._version

    @property
    def digest(self) -> str:
        return self._digest

    def value_at(self, digest: str) -> int | None:
        """The maintained value at a retained version digest, if any."""
        entry = self._history.get(digest)
        return entry[1] if entry is not None else None

    def close(self) -> None:
        """Detach from the dynamic graph (no further refreshes)."""
        self.dynamic.unsubscribe(self)

    # ------------------------------------------------------------------
    # refresh machinery
    # ------------------------------------------------------------------
    def _compose(self, record: GraphVersion, counts: tuple[int, ...]) -> int:
        value = record.graph.num_vertices() ** self.isolated_vertices
        for count in counts:
            value *= count
        return value

    def _commit(
        self, record: GraphVersion, counts: tuple[int, ...], method: str,
    ) -> None:
        self._version = record.version
        self._digest = record.digest
        self._value = self._compose(record, counts)
        self.method = method
        self._history[record.digest] = (record.version, self._value, counts)
        self._history.move_to_end(record.digest)
        while len(self._history) > self.dynamic.history_limit + 2:
            self._history.popitem(last=False)
        self.provenance.append(
            {
                "version": record.version,
                "digest": record.digest,
                "value": self._value,
                "method": method,
            },
        )

    def _recompute(self, record: GraphVersion) -> tuple[int, ...]:
        return tuple(
            self.engine.count(
                component.graph, record.graph, target_id=record.target_id,
            )
            for component in self._components
        )

    def _delta_counts(
        self,
        old: GraphVersion,
        new: GraphVersion,
        old_counts: tuple[int, ...],
        plans: list[DeltaPlan],
    ) -> tuple[int, ...]:
        encode = new.indexed.codec.encode
        removed = [
            (encode(u), encode(v)) for u, v in new.net_removed_edges
        ]
        added = [(encode(u), encode(v)) for u, v in new.net_added_edges]
        bitsets = list(old.indexed.bitsets())
        bitsets.extend([0] * (new.indexed.n - old.indexed.n))
        deltas = batch_delta(plans, bitsets, removed, added)
        return tuple(
            count + delta for count, delta in zip(old_counts, deltas)
        )

    def _on_apply(self, old: GraphVersion, new: GraphVersion) -> None:
        stats = self.dynamic.stats
        previous = self._history.get(old.digest)
        plans: list[DeltaPlan] = []
        use_delta = self.mode != "recompute" and previous is not None
        if use_delta and new.net_removed_vertices:
            use_delta = False  # index space shifted: patch invariant broken
        if use_delta:
            for component in self._components:
                plan = component.delta_plan()
                if plan is None:
                    use_delta = False
                    break
                plans.append(plan)
        if use_delta and self.mode == "auto" and self._components:
            graph = new.graph
            n = graph.num_vertices()
            average_degree = 2 * graph.num_edges() / n if n else 0.0
            changed = len(new.net_added_edges) + len(new.net_removed_edges)
            delta_cost = estimate_delta_cost(plans, changed, average_degree)
            recompute_cost = sum(
                estimate_recompute_cost(
                    self.engine.plan_for(component.graph), n, average_degree,
                )
                for component in self._components
            )
            if delta_cost > recompute_cost:
                use_delta = False
        if use_delta:
            with span("dynamic.refresh", method="delta"):
                counts = self._delta_counts(old, new, previous[2], plans)
            stats.deltas_applied += 1
            _count_refresh("delta")
            self._commit(new, counts, "delta")
        else:
            with span("dynamic.refresh", method="recompute"):
                counts = self._recompute(new)
            stats.delta_fallbacks += 1
            _count_refresh("recompute")
            self._commit(new, counts, "recompute")

    def _on_rollback(self, dropped: GraphVersion, restored: GraphVersion) -> None:
        entry = self._history.get(restored.digest)
        if entry is not None:
            _, _, counts = entry
            self._commit(restored, counts, "rollback")
        else:
            counts = self._recompute(restored)
            self.dynamic.stats.delta_fallbacks += 1
            self._commit(restored, counts, "recompute")

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "pattern": {
                "vertices": self.pattern.num_vertices(),
                "edges": self.pattern.num_edges(),
            },
            "version": self.version,
            "value": self.value,
            "method": self.method,
        }

    def __repr__(self) -> str:
        return (
            f"MaintainedCount(pattern=n{self.pattern.num_vertices()}"
            f"m{self.pattern.num_edges()}, version={self.version}, "
            f"value={self.value})"
        )


class MaintainedAnswerCount:
    """``|Ans((H, X), ·)|`` kept current over a :class:`DynamicGraph`.

    Non-trivial queries ride Lemma 22: the power sums
    ``p_ℓ = |Hom(F_ℓ(H, X), G)|`` are maintained homomorphism counts (one
    :class:`MaintainedCount` per ℓ, created on demand and incremental
    from then on) and the answer count is exact rational interpolation
    over them — evaluated lazily per version and cached, so rollback is a
    lookup.  Full queries are a single maintained count; Boolean queries
    threshold one.
    """

    kind = "answer-count"

    def __init__(
        self,
        query,
        dynamic: DynamicGraph,
        engine=None,
        mode: Mode = "auto",
    ) -> None:
        if engine is None:
            from repro.engine import default_engine

            engine = default_engine()
        self.query = query
        self.dynamic = dynamic
        self.engine = engine
        self.mode = mode
        self._direct: MaintainedCount | None = None
        self._ell_counts: dict[int, MaintainedCount] = {}
        self._values: OrderedDict[str, tuple[int, int]] = OrderedDict()
        self.provenance: deque[dict] = deque(maxlen=PROVENANCE_LIMIT)
        if query.is_full() or not query.free_variables:
            self._direct = MaintainedCount(
                query.graph, dynamic, engine=engine, mode=mode,
            )
        _ = self.value  # compute (and record) the initial answer count

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self.dynamic.version

    @property
    def value(self) -> int:
        """The answer count at the dynamic graph's current version.

        Evaluated under the stream's lock: the version snapshot and the
        maintained power sums it interpolates are read atomically.
        """
        with self.dynamic.lock:
            record = self.dynamic.snapshot()
            cached = self._values.get(record.digest)
            if cached is not None:
                return cached[1]
            if self._direct is not None:
                homs = self._direct.value
                if self.query.is_full():
                    result = homs
                else:  # Boolean: one (empty) answer iff a hom exists
                    result = 1 if homs > 0 else 0
            else:
                from repro.queries.answers import (
                    count_answers_from_power_sums,
                )

                result = count_answers_from_power_sums(self._power_sum)
            self._values[record.digest] = (record.version, result)
            self._values.move_to_end(record.digest)
            while len(self._values) > self.dynamic.history_limit + 2:
                self._values.popitem(last=False)
            self.provenance.append(
                {
                    "version": record.version,
                    "digest": record.digest,
                    "value": result,
                },
            )
            return result

    def _power_sum(self, ell: int) -> int:
        maintained = self._ell_counts.get(ell)
        if maintained is None:
            from repro.queries.extension import ell_copy

            pattern, _ = ell_copy(self.query, ell)
            maintained = MaintainedCount(
                pattern, self.dynamic, engine=self.engine, mode=self.mode,
            )
            self._ell_counts[ell] = maintained
        return maintained.value

    @property
    def power_sums_maintained(self) -> int:
        """How many ℓ-copy hom counts are currently maintained."""
        return len(self._ell_counts)

    def close(self) -> None:
        if self._direct is not None:
            self._direct.close()
        for maintained in self._ell_counts.values():
            maintained.close()

    def summary(self) -> dict:
        from repro.queries.parser import format_query

        return {
            "kind": self.kind,
            "query": format_query(self.query, style="logic"),
            "version": self.version,
            "value": self.value,
            "power_sums": self.power_sums_maintained,
        }

    def __repr__(self) -> str:
        return (
            f"MaintainedAnswerCount(version={self.version}, "
            f"value={self.value})"
        )

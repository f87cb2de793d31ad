"""Typed, immutable task specs — the declarative surface of the library.

A *task* describes one unit of work ("count homomorphisms of this pattern
into that target", "analyse this query") without saying *where* it runs.
The same spec executes on any :mod:`~repro.api.executors` executor — the
in-process engine, the counting service, or a dynamic maintained handle —
and serialises canonically through :mod:`repro.service.wire`, so the CLI,
the HTTP server, and the Python client all construct and consume the same
payloads.

Specs are frozen at construction: inputs are validated eagerly (queries
parsed, wire specs decoded, graphs defensively copied) so a task that
constructs is a task that runs.  Equality and hashing go through
:meth:`Task.cache_key` — a process-independent digest of the canonical
wire payload — which is also what executors key their memoised
resolutions and maintained handles on.

Targets are polymorphic: a registered **dataset name** (``str``), an
inline :class:`~repro.graphs.graph.Graph` /
:class:`~repro.kg.kgraph.KnowledgeGraph`, or a raw wire spec mapping
(decoded on the spot).  Graphs handed to a task are treated as frozen
values from then on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from repro.errors import TaskError
from repro.graphs.graph import Graph

_ANSWER_METHODS = ("auto", "direct", "interpolation")


def _normalise_graph(value, what: str, copy: bool = False) -> Graph:
    """Graph or wire spec → :class:`Graph` (patterns are defensively
    copied; targets may be large, so they are held as frozen-by-convention
    references)."""
    if isinstance(value, Graph):
        return value.copy() if copy else value
    if isinstance(value, Mapping):
        from repro.service.wire import graph_from_spec

        return graph_from_spec(value)
    raise TaskError(f"{what} must be a Graph or a graph spec, got {type(value).__name__}")


def _normalise_graph_target(value):
    """Dataset name, graph, or spec → ``str`` or :class:`Graph`."""
    if isinstance(value, str):
        if not value:
            raise TaskError("dataset name must be a non-empty string")
        return value
    return _normalise_graph(value, "target")


def _normalise_kg(value, what: str):
    from repro.kg.kgraph import KnowledgeGraph

    if isinstance(value, KnowledgeGraph):
        return value
    if isinstance(value, Mapping):
        from repro.service.wire import kg_from_spec

        return kg_from_spec(value)
    raise TaskError(
        f"{what} must be a KnowledgeGraph or a KG spec, got {type(value).__name__}",
    )


def _normalise_query_text(value) -> tuple:
    """Query text or a :class:`ConjunctiveQuery` → ``(validated text,
    parsed query)``; the parse is ``None`` for a query object, whose
    formatted text is parsed on first use."""
    from repro.queries.parser import format_query, parse_query
    from repro.queries.query import ConjunctiveQuery

    if isinstance(value, ConjunctiveQuery):
        return format_query(value, style="datalog"), None
    if isinstance(value, str):
        # The raw text stays canonical; the validating parse is kept.
        return value, parse_query(value)
    raise TaskError(
        f"query must be text or a ConjunctiveQuery, got {type(value).__name__}",
    )


@dataclass(frozen=True, eq=False, repr=False)
class Task:
    """Base class: canonical identity, wire codec hooks, and parsing memos."""

    kind: ClassVar[str] = "task"

    def to_wire(self) -> dict:
        """The canonical JSON-able payload (see :mod:`repro.service.wire`)."""
        from repro.service.wire import task_to_wire

        return task_to_wire(self)

    def cache_key(self) -> str:
        """Process-independent digest of the canonical wire payload.

        Memoised per instance: the wire encoding runs at most once however
        often executors hash the task.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            from repro.utils import stable_key_digest

            key = stable_key_digest((self.kind, self.to_wire()))
            object.__setattr__(self, "_cache_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self.kind == other.kind and self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

    def describe(self) -> str:
        return self.kind


def _target_brief(target) -> str:
    if isinstance(target, str):
        return f"dataset {target!r}"
    if isinstance(target, Graph):
        return f"graph n{target.num_vertices()}m{target.num_edges()}"
    return f"kg n{target.num_vertices()}t{target.num_triples()}"


@dataclass(frozen=True, eq=False, repr=False)
class HomCountTask(Task):
    """``|Hom(pattern, target)|`` — the engine's bread and butter."""

    kind: ClassVar[str] = "hom-count"

    pattern: Graph
    target: object  # str (dataset name) or Graph

    def __init__(self, pattern, target) -> None:
        object.__setattr__(
            self, "pattern", _normalise_graph(pattern, "pattern", copy=True),
        )
        object.__setattr__(self, "target", _normalise_graph_target(target))

    def describe(self) -> str:
        return (
            f"pattern n{self.pattern.num_vertices()}"
            f"m{self.pattern.num_edges()} -> {_target_brief(self.target)}"
        )


@dataclass(frozen=True, eq=False, repr=False)
class _QueryTask(Task):
    """A task over one conjunctive query, given as text or as a
    :class:`~repro.queries.query.ConjunctiveQuery`."""

    query: str

    def __init__(self, query) -> None:
        text, parsed = _normalise_query_text(query)
        object.__setattr__(self, "query", text)
        if parsed is not None:
            object.__setattr__(self, "_parsed", parsed)

    def parsed(self):
        """The parsed :class:`ConjunctiveQuery` (memoised; text input
        keeps the parse that validated it)."""
        parsed = self.__dict__.get("_parsed")
        if parsed is None:
            from repro.queries.parser import parse_query

            parsed = parse_query(self.query)
            object.__setattr__(self, "_parsed", parsed)
        return parsed

    def describe(self) -> str:
        return repr(self.query)


@dataclass(frozen=True, eq=False, repr=False)
class AnswerCountTask(_QueryTask):
    """``|Ans((H, X), target)|`` for a conjunctive query.

    ``method`` selects the counting route: ``'direct'`` enumerates,
    ``'interpolation'`` rides Lemma 22 over engine-backed power sums, and
    ``'auto'`` (the service's behaviour) goes direct for Boolean queries
    and otherwise runs the engine's
    :class:`~repro.engine.plans.AnswerPlan` over the query's
    counting-minimal core (at the semantic extension width, with the
    answer count cached per core and target).  All routes agree on the
    value.
    """

    kind: ClassVar[str] = "answer-count"

    target: object  # str (dataset name) or Graph
    method: str = "auto"

    def __init__(self, query, target, method: str = "auto") -> None:
        if method not in _ANSWER_METHODS:
            raise TaskError(f"unknown answer-count method {method!r}")
        super().__init__(query)
        object.__setattr__(self, "target", _normalise_graph_target(target))
        object.__setattr__(self, "method", method)

    def describe(self) -> str:
        return f"{self.query!r} on {_target_brief(self.target)}"


@dataclass(frozen=True, eq=False, repr=False)
class KgAnswerCountTask(Task):
    """``|Ans((P, X), target)|`` for a knowledge-graph conjunctive query."""

    kind: ClassVar[str] = "kg-answer-count"

    query: object  # KgQuery
    target: object  # str (dataset name) or KnowledgeGraph

    def __init__(self, query, target) -> None:
        from repro.kg.queries import KgQuery

        if isinstance(query, Mapping):
            from repro.service.wire import kg_query_from_spec

            query = kg_query_from_spec(query)
        if not isinstance(query, KgQuery):
            raise TaskError(
                f"query must be a KgQuery or a KG query spec, "
                f"got {type(query).__name__}",
            )
        if isinstance(target, str):
            if not target:
                raise TaskError("dataset name must be a non-empty string")
        else:
            target = _normalise_kg(target, "target")
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "target", target)

    def describe(self) -> str:
        return (
            f"kg query ({len(self.query.free_variables)} free) on "
            f"{_target_brief(self.target)}"
        )


@dataclass(frozen=True, eq=False, repr=False, init=False)
class WlDimensionTask(_QueryTask):
    """The WL-dimension of a conjunctive query (Theorem 1)."""

    kind: ClassVar[str] = "wl-dimension"


@dataclass(frozen=True, eq=False, repr=False, init=False)
class AnalyzeTask(_QueryTask):
    """The full structural report for a conjunctive query."""

    kind: ClassVar[str] = "analyze"


@dataclass(frozen=True, eq=False, repr=False)
class TaskBatch(Task):
    """An ordered container of task specs, executed as one unit.

    Iterable and indexable; executors run the members in order (sharing
    whatever plan/count caches the executor holds) and return one result
    per member.
    """

    kind: ClassVar[str] = "batch"

    tasks: tuple = field(default_factory=tuple)

    def __init__(self, tasks) -> None:
        members = tuple(tasks)
        for member in members:
            if not isinstance(member, Task):
                raise TaskError(
                    f"batch members must be tasks, got {type(member).__name__}",
                )
            if isinstance(member, TaskBatch):
                raise TaskError("batches do not nest")
        object.__setattr__(self, "tasks", members)

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, index):
        return self.tasks[index]

    def describe(self) -> str:
        return f"{len(self.tasks)} tasks"


TASK_TYPES: dict[str, type[Task]] = {
    cls.kind: cls
    for cls in (
        HomCountTask,
        AnswerCountTask,
        KgAnswerCountTask,
        WlDimensionTask,
        AnalyzeTask,
        TaskBatch,
    )
}

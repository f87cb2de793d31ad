"""Wire format: the (de)serialization of task specs and results.

One module defines how :mod:`repro.api.tasks` specs, their graph/query
building blocks, and :class:`~repro.api.result.Result` objects travel
over the service's JSON API — so the HTTP server, the Python client, and
the CLI's ``--json`` mode all construct and consume the same canonical
payloads (CLI/service parity is an acceptance criterion and is asserted
by the tests).

Task payloads
    ``{"task": kind, ...}`` — :func:`task_to_wire` /
    :func:`task_from_wire` round-trip byte-identically (canonical JSON),
    and the per-verb request bodies (``POST /count`` etc.) are exactly
    these payloads: the verbs are aliases of ``POST /task`` that fill in
    the ``task`` kind.

Graph specs
    ``{"graph6": "..."}`` — compact, vertices become ``0..n-1``; or
    ``{"vertices": [...], "edges": [[u, v], ...]}`` with JSON-scalar labels.

Knowledge-graph specs
    ``{"vertices": [[name, label], ...], "triples": [[s, l, t], ...]}``
    (vertex list form, not an object, so integer names survive the trip).

KG query specs
    a KG spec plus ``"free": [names]``.

Results
    :func:`result_to_wire` / :func:`result_from_wire` carry the full
    :class:`~repro.api.result.Result`; :func:`result_to_payload` renders
    the legacy per-verb response shapes (``count``, ``count-answers``,
    ``wl-dim``, ``analyze``) from the same object.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import from_graph6, to_graph6


class WireError(ReproError):
    """Malformed request payload or an unencodable object."""

    code = "bad-request"


# ----------------------------------------------------------------------
# graph codecs
# ----------------------------------------------------------------------
def graph_from_spec(spec) -> Graph:
    """Decode a graph spec (``graph6`` or ``vertices``/``edges`` form)."""
    if not isinstance(spec, Mapping):
        raise WireError(f"graph spec must be an object, got {type(spec).__name__}")
    if "graph6" in spec:
        if not isinstance(spec["graph6"], str):
            raise WireError(f"'graph6' must be a string, got {spec['graph6']!r}")
        return from_graph6(spec["graph6"])
    if "edges" not in spec and "vertices" not in spec:
        raise WireError("graph spec needs 'graph6' or 'vertices'/'edges'")
    graph = Graph(vertices=spec.get("vertices", ()))
    for edge in spec.get("edges", ()):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise WireError(f"edge must be a pair, got {edge!r}")
        graph.add_edge(edge[0], edge[1])
    return graph


def graph_to_spec(graph: Graph) -> dict:
    """Encode a graph for the wire (graph6 when it fits, else edge list)."""
    if graph.num_vertices() <= 62:
        return {"graph6": to_graph6(graph)}
    vertices = graph.vertices()
    if not all(isinstance(v, (str, int, float, bool)) for v in vertices):
        raise WireError(
            "graphs over 62 vertices need JSON-scalar vertex labels",
        )
    return {
        "vertices": vertices,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_summary(graph: Graph) -> dict:
    return {"vertices": graph.num_vertices(), "edges": graph.num_edges()}


def kg_summary(kg) -> dict:
    return {"vertices": kg.num_vertices(), "triples": kg.num_triples()}


# ----------------------------------------------------------------------
# knowledge-graph codecs
# ----------------------------------------------------------------------
def kg_from_spec(spec):
    from repro.kg.kgraph import KnowledgeGraph

    if not isinstance(spec, Mapping):
        raise WireError("knowledge-graph spec must be an object")
    kg = KnowledgeGraph()
    for entry in spec.get("vertices", ()):
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            kg.add_vertex(entry[0], entry[1])
        else:
            kg.add_vertex(entry)
    for triple in spec.get("triples", ()):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise WireError(f"triple must be [source, label, target], got {triple!r}")
        kg.add_edge(triple[0], triple[1], triple[2])
    return kg


def kg_to_spec(kg) -> dict:
    """Encode a knowledge graph canonically: vertices and triples in
    sorted (repr) order, so content-identical KGs produce byte-identical
    specs regardless of insertion history — the wire round-trip tests and
    the registry's content tokens both rely on this."""
    return {
        "vertices": sorted(
            ([v, kg.vertex_label(v)] for v in kg.vertices()),
            key=lambda entry: repr(entry[0]),
        ),
        "triples": sorted((list(t) for t in kg.triples()), key=repr),
    }


def kg_query_from_spec(spec):
    from repro.kg.queries import KgQuery

    pattern = kg_from_spec(spec)
    free = spec.get("free", ())
    if not isinstance(free, (list, tuple)):
        raise WireError("'free' must be a list of vertex names")
    for variable in free:
        pattern.add_vertex(variable)
    return KgQuery(pattern, free)


def kg_query_to_spec(query) -> dict:
    spec = kg_to_spec(query.pattern)
    spec["free"] = sorted(query.free_variables, key=repr)
    return spec


# ----------------------------------------------------------------------
# dynamic-update codecs
# ----------------------------------------------------------------------
#: The update fields each dataset kind takes, in ``POST /target-update``
#: bodies and as ``Session.update`` keywords.
_UPDATE_FIELDS = {
    "graph": ("add_edges", "remove_edges", "add_vertices", "remove_vertices"),
    "kg": ("add_vertices", "add_triples", "remove_triples"),
}


def update_from_spec(kind: str, spec):
    """Decode one update batch for a dataset of ``kind``.

    A graph batch decodes to an :class:`~repro.dynamic.graph.UpdateBatch`,
    a KG batch to ``DynamicKnowledgeGraph.apply`` keywords.  Any other
    non-empty field except ``target`` — the other kind's update fields
    in particular — is rejected, never dropped.
    """
    if not isinstance(spec, Mapping):
        raise WireError("update spec must be an object")
    fields = _UPDATE_FIELDS[kind]
    foreign = sorted(
        key for key, value in spec.items()
        if value and key != "target" and key not in fields
    )
    if foreign:
        raise WireError(
            f"{kind} datasets take {' / '.join(fields)} updates, "
            f"got {foreign}",
        )
    if not any(spec.get(key) for key in fields):
        raise WireError(
            f"update batch is empty: pass {' / '.join(fields)}",
        )
    if kind == "kg":
        return _kg_update(spec)
    return _graph_update(spec)


def _graph_update(spec) -> "UpdateBatch":
    from repro.dynamic.graph import UpdateBatch

    for key in ("add_edges", "remove_edges"):
        for edge in spec.get(key, ()):
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise WireError(f"{key!r} entries must be pairs, got {edge!r}")
    for key in ("add_vertices", "remove_vertices"):
        if not isinstance(spec.get(key, []), (list, tuple)):
            raise WireError(f"{key!r} must be a list of vertex names")
    return UpdateBatch.build(
        **{key: spec.get(key, ()) for key in _UPDATE_FIELDS["graph"]},
    )


def _kg_update(spec) -> dict:
    """``add_vertices`` entries are ``[name, label]`` or names."""
    add_vertices = []
    for entry in spec.get("add_vertices", ()):
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            add_vertices.append((entry[0], entry[1]))
        else:
            add_vertices.append(entry)
    triples = {"add_triples": [], "remove_triples": []}
    for key, bucket in triples.items():
        for triple in spec.get(key, ()):
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise WireError(
                    f"{key!r} entries must be [source, label, target], "
                    f"got {triple!r}",
                )
            bucket.append(tuple(triple))
    return {"add_vertices": add_vertices, **triples}


# ----------------------------------------------------------------------
# task codecs (the canonical spec payloads)
# ----------------------------------------------------------------------
def target_to_spec(target):
    """Dataset name, graph, or knowledge graph — as sent on the wire."""
    if isinstance(target, str):
        return target
    if isinstance(target, Graph):
        return graph_to_spec(target)
    if hasattr(target, "triples"):
        return kg_to_spec(target)
    raise WireError(f"cannot encode target {type(target).__name__}")


def task_to_wire(task) -> dict:
    """The canonical JSON payload of a task spec.

    These payloads double as the per-verb HTTP request bodies (the
    ``task`` discriminator rides along harmlessly) and round-trip
    byte-identically through :func:`task_from_wire`.
    """
    from repro.api.tasks import (
        AnalyzeTask,
        AnswerCountTask,
        HomCountTask,
        KgAnswerCountTask,
        TaskBatch,
        WlDimensionTask,
    )

    if isinstance(task, HomCountTask):
        return {
            "task": task.kind,
            "pattern": graph_to_spec(task.pattern),
            "target": target_to_spec(task.target),
        }
    if isinstance(task, AnswerCountTask):
        payload = {
            "task": task.kind,
            "query": task.query,
            "target": target_to_spec(task.target),
        }
        if task.method != "auto":
            payload["method"] = task.method
        return payload
    if isinstance(task, KgAnswerCountTask):
        return {
            "task": task.kind,
            "kg_query": kg_query_to_spec(task.query),
            "target": target_to_spec(task.target),
        }
    if isinstance(task, (WlDimensionTask, AnalyzeTask)):
        return {"task": task.kind, "query": task.query}
    if isinstance(task, TaskBatch):
        return {
            "task": task.kind,
            "tasks": [task_to_wire(member) for member in task.tasks],
        }
    raise WireError(f"cannot encode task {type(task).__name__}")


def task_from_wire(payload):
    """Decode a canonical task payload into its typed spec."""
    from repro.api.tasks import (
        AnalyzeTask,
        AnswerCountTask,
        HomCountTask,
        KgAnswerCountTask,
        TaskBatch,
        WlDimensionTask,
    )

    if not isinstance(payload, Mapping):
        raise WireError(
            f"task payload must be an object, got {type(payload).__name__}",
        )
    kind = payload.get("task")
    if kind == "hom-count":
        return HomCountTask(
            _field(payload, "pattern"), _field(payload, "target"),
        )
    if kind == "answer-count":
        return AnswerCountTask(
            _field(payload, "query"),
            _field(payload, "target"),
            method=payload.get("method", "auto"),
        )
    if kind == "kg-answer-count":
        return KgAnswerCountTask(
            _field(payload, "kg_query"), _field(payload, "target"),
        )
    if kind == "wl-dimension":
        return WlDimensionTask(_field(payload, "query"))
    if kind == "analyze":
        return AnalyzeTask(_field(payload, "query"))
    if kind == "batch":
        members = _field(payload, "tasks")
        if not isinstance(members, (list, tuple)):
            raise WireError("'tasks' must be a list of task payloads")
        return TaskBatch(task_from_wire(member) for member in members)
    raise WireError(f"unknown task kind {kind!r}")


def _field(payload: Mapping, name: str):
    if name not in payload:
        raise WireError(f"task payload is missing the {name!r} field")
    return payload[name]


# ----------------------------------------------------------------------
# result codecs
# ----------------------------------------------------------------------
def result_to_wire(result) -> dict:
    """The full :class:`~repro.api.result.Result` as a JSON payload
    (the ``POST /task`` response shape)."""
    provenance = dict(result.provenance)
    trace = provenance.get("trace")
    if trace is not None and not isinstance(trace, dict):
        # A live Span (local execution) serialises to its tree dict;
        # already-wire dicts pass through untouched.
        from repro.obs.trace import span_to_dict

        provenance["trace"] = span_to_dict(trace)
    if trace is not None and "cost" not in provenance:
        # The phase breakdown travels precomputed so service-side clients
        # read Result.cost without re-walking the tree.
        from repro.obs.cost import cost_breakdown

        provenance["cost"] = cost_breakdown(provenance["trace"])
    return {
        "kind": "result",
        "task": result.kind,
        "value": result.value,
        "executor": result.executor,
        "backend": result.backend,
        "cached": result.cached,
        "version": result.version,
        "provenance": provenance,
        "elapsed_ms": round(result.elapsed_ms, 3),
    }


def result_from_wire(payload):
    from repro.api.result import Result

    if not isinstance(payload, Mapping) or payload.get("kind") != "result":
        raise WireError("expected a result payload")
    return Result(
        kind=payload.get("task"),
        value=payload.get("value"),
        executor=payload.get("executor", "service"),
        backend=payload.get("backend"),
        cached=payload.get("cached"),
        version=payload.get("version"),
        provenance=dict(payload.get("provenance", {})),
        elapsed_ms=payload.get("elapsed_ms", 0.0),
    )


def result_to_payload(result) -> dict:
    """Render a result in the legacy per-verb response shape.

    The HTTP API's response contract predates the task model; this is the
    single place that maps the uniform :class:`Result` back onto it, so
    the server routes and the CLI's ``--json`` mode stay byte-compatible.
    """
    provenance = result.provenance
    if result.kind == "hom-count":
        return {
            "kind": "count",
            "pattern": provenance["pattern"],
            "target": provenance["target"],
            "count": result.value,
            "plan": result.backend,
        }
    if result.kind == "answer-count":
        return {
            "kind": "count-answers",
            "query": provenance["query"],
            "logic": provenance["logic"],
            "target": provenance["target"],
            "count": result.value,
            "method": result.backend,
        }
    if result.kind == "kg-answer-count":
        return {
            "kind": "count-answers",
            "kg_query": provenance["kg_query"],
            "target": provenance["target"],
            "count": result.value,
            "method": "kg-engine",
        }
    if result.kind == "wl-dimension":
        return {
            "kind": "wl-dim",
            "query": provenance["query"],
            "logic": provenance["logic"],
            "wl_dimension": result.value,
        }
    if result.kind == "analyze":
        return {
            "kind": "analyze",
            "query": provenance["query"],
            "logic": provenance["logic"],
            "analysis": result.value,
        }
    raise WireError(f"cannot render result kind {result.kind!r}")


def error_payload(error: Exception, code: str | None = None) -> dict:
    """The structured error shape every non-200 response carries.

    ``code`` is the stable machine-readable identifier from
    :mod:`repro.errors` (kebab-case, part of the wire contract)."""
    if code is None:
        code = getattr(error, "code", "internal-error")
    return {"kind": "error", "error": str(error), "code": code}


# ----------------------------------------------------------------------
# response payloads (shared by the server and the CLI's --json mode)
# ----------------------------------------------------------------------
def dynamic_stats_payload(stats) -> dict:
    """The version/delta statistics block (``DynamicStats.snapshot()``
    shape) shared by ``POST /target-update``, ``GET /stats``,
    ``repro update --json`` and ``repro engine-stats``."""
    return {"kind": "dynamic-stats", **stats.snapshot()}


def subscription_payload(subscription_id: str, target_name: str, handle) -> dict:
    """One maintained subscription: its identity plus the handle's
    current ``summary()`` (version, value, …; the handle kind moves to
    ``maintains``)."""
    summary = dict(handle.summary())
    maintains = summary.pop("kind", "hom-count")
    return {
        "kind": "subscription",
        "id": subscription_id,
        "target": target_name,
        "maintains": maintains,
        **summary,
    }


def target_update_payload(
    name: str,
    version: int,
    applied: dict,
    patched: bool,
    stats,
    subscriptions: list[dict],
) -> dict:
    """The ``POST /target-update`` response (also emitted verbatim by
    ``repro update --json``)."""
    return {
        "kind": "target-update",
        "target": name,
        "version": version,
        "applied": applied,
        "patched": patched,
        "dynamic": dynamic_stats_payload(stats),
        "subscriptions": subscriptions,
    }


def health_payload(report, kind: str = "health") -> dict:
    """A :class:`repro.obs.health.HealthReport` as a wire payload.

    ``kind``/``status`` match the pre-PR-9 stub byte-for-byte when every
    probe is ok; ``probes``/``reasons`` are the additive detail.
    """
    return {
        "kind": kind,
        "status": report.status,
        "probes": {
            name: result.to_dict() for name, result in report.probes.items()
        },
        "reasons": report.reasons,
    }


def readiness_payload(report, ready: bool, datasets: int) -> dict:
    """The ``GET /readyz`` response: the gating probes plus whether the
    process should receive traffic."""
    payload = health_payload(report, kind="readyz")
    payload["ready"] = ready
    payload["datasets"] = datasets
    return payload


def slo_payload(report: dict) -> dict:
    """The ``GET /slo`` response (``SloTracker.report()`` shape)."""
    return {"kind": "slo", **report}


def alerts_payload(states: list[dict]) -> dict:
    """The ``GET /alerts`` response: every rule state plus the names of
    currently firing rules."""
    return {
        "kind": "alerts",
        "firing": [state["name"] for state in states if state["firing"]],
        "alerts": states,
    }

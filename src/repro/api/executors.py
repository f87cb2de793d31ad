"""Interchangeable executors: one task model, three execution contexts.

* :class:`LocalExecutor` — runs specs in-process over a
  :class:`~repro.engine.HomEngine` (plus the library's query machinery),
  resolving dataset names through a
  :class:`~repro.service.registry.DatasetRegistry` with the same
  serving-state snapshot discipline as the HTTP server, which runs its
  routes on exactly this executor.
* :class:`ServiceExecutor` — ships the canonical wire payload of a spec
  to a running counting service (``POST /task``) and decodes the result.
* :class:`DynamicExecutor` — binds each spec to a maintained handle
  (:class:`~repro.dynamic.maintained.MaintainedCount` and friends), so
  re-running the spec reads the live value at the target's *current*
  version instead of recounting: the spec stays subscribed across
  ``apply``/``rollback``.

Executors memoise per-spec resolution (gadget encodings, maintained
handles) keyed by the spec's canonical
:meth:`~repro.api.tasks.Task.cache_key`, bounded by an LRU so long
sessions stay flat in memory.  An inline hom-count target's fingerprint
is memoised on the task instance itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.api.result import Result
from repro.api.tasks import (
    AnalyzeTask,
    AnswerCountTask,
    HomCountTask,
    KgAnswerCountTask,
    Task,
    TaskBatch,
    WlDimensionTask,
)
from repro.errors import TaskError
from repro.obs import (
    child_span,
    cost_breakdown,
    leaf_span,
    maybe_record as _slowlog_record,
    observe_slo,
    observe_task_cost,
    registry as _metrics_registry,
    span,
)

# Per-executor resolution memo bound; evicted entries are simply re-resolved
# (and maintained handles re-subscribed) on next use.
PREPARED_LIMIT = 512

# repro_tasks_total children, memoised per (kind, executor) so the warm
# path pays one dict hit + one counter inc, not a registry lookup.
_task_children: dict[tuple[str, str], object] = {}


def _count_task(kind: str, executor: str) -> None:
    child = _task_children.get((kind, executor))
    if child is None:
        family = _metrics_registry().counter(
            "repro_tasks_total",
            "Task specs executed, by task kind and executor.",
            labelnames=("kind", "executor"),
        )
        child = family.labels(kind=kind, executor=executor)
        _task_children[(kind, executor)] = child
    child.inc()


def _finish_task(task: Task, result: Result, sp) -> Result:
    """Post-run telemetry shared by every in-process execution path.

    Phase-cost histograms only when the span tree has children — i.e.
    some real compile/execute/encode work ran; a warm cache hit skips
    the tree walk entirely.  The slow-query check is one float compare
    for fast results.
    """
    if sp.children and sp.live:
        observe_task_cost(result.kind, result.backend, cost_breakdown(sp))
    # Feed the task-kind SLO window (cheap no-op when tracking is off).
    observe_slo(result.kind, result.elapsed_ms)
    _slowlog_record(task, result)
    return result


def _inline_target_id(task: HomCountTask, parent=None) -> tuple:
    """The inline target's engine cache key, fingerprinted at most once
    per task instance: memoised on the task, like its ``cache_key()``,
    so a probe miss hands it to the worker that runs the task."""
    target_id = task.__dict__.get("_target_id")
    if target_id is None:
        from repro.engine.cache import target_key

        with child_span(parent, "task.encode.target"):
            target_id = target_key(task.target)
        object.__setattr__(task, "_target_id", target_id)
    return target_id


class _PreparedCache:
    """A tiny lock-guarded LRU for per-task resolution state.

    Executors are shared across server worker threads, so every
    operation locks; the optional eviction hook lets the dynamic
    executor close maintained handles it drops.
    """

    def __init__(self, limit: int = PREPARED_LIMIT, on_evict=None) -> None:
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._limit = limit
        self._on_evict = on_evict
        self._lock = threading.Lock()

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry) -> None:
        evicted = []
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._limit:
                evicted.append(self._entries.popitem(last=False)[1])
        if self._on_evict is not None:
            for entry in evicted:
                self._on_evict(entry)

    def values(self):
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        if self._on_evict is not None:
            for entry in entries:
                self._on_evict(entry)


class Executor:
    """The executor protocol: ``run`` one spec, ``run_batch`` a container."""

    name = "abstract"

    def run(self, task: Task) -> Result:
        raise NotImplementedError

    def run_batch(self, batch: TaskBatch) -> list[Result]:
        return [self.run(task) for task in batch]

    def close(self) -> None:
        """Release held resources (maintained handles, connections)."""

    # ------------------------------------------------------------------
    # shared pure computations (no target involved)
    # ------------------------------------------------------------------
    def _run_query_analysis(self, task: Task) -> Result:
        from repro.core.wl_dimension import analyse_query, wl_dimension
        from repro.queries.parser import format_query, parse_query

        sp = span(f"task.{task.kind}", executor=self.name)
        with sp:
            query = parse_query(task.query)
            logic = format_query(query, style="logic")
            if isinstance(task, WlDimensionTask):
                value: object = wl_dimension(query)
            else:
                value = analyse_query(query)
        _count_task(task.kind, self.name)
        provenance: dict = {"query": task.query, "logic": logic}
        if sp.live:
            provenance["trace"] = sp
        return _finish_task(task, Result(
            kind=task.kind,
            value=value,
            executor=self.name,
            backend="exact",
            provenance=provenance,
            elapsed_ms=sp.duration_ms,
        ), sp)


def _graph_summary(graph) -> dict:
    # One source of truth with the wire payloads (imported lazily — the
    # service package's __init__ pulls in the server, which imports us).
    from repro.service.wire import graph_summary

    return graph_summary(graph)


def _kg_summary(kg) -> dict:
    from repro.service.wire import kg_summary

    return kg_summary(kg)


class LocalExecutor(Executor):
    """Run task specs in-process over a shared engine and registry.

    ``engine=None`` resolves :func:`repro.engine.default_engine` *per
    call*, so the executor honours ``set_default_engine`` swaps (tests
    and the service install their own engines); pass an engine to pin
    one.  ``registry`` resolves dataset-name targets; the HTTP server
    passes its own so requests and the task route serve identical state.
    """

    name = "local"

    def __init__(self, engine=None, registry=None) -> None:
        self._engine = engine
        if registry is None:
            from repro.service.registry import DatasetRegistry

            registry = DatasetRegistry()
        self.registry = registry
        self._prepared = _PreparedCache()

    @property
    def engine(self):
        if self._engine is not None:
            return self._engine
        from repro.engine import default_engine

        return default_engine()

    # ------------------------------------------------------------------
    # fast-path counting (ints, no Result) — the legacy shims ride these
    # ------------------------------------------------------------------
    def hom_count(self, pattern, target, target_id=None) -> int:
        """``|Hom(pattern, target)|`` for an inline target graph."""
        return self.engine.count(pattern, target, target_id=target_id)

    def answer_count(self, query, target, method: str = "auto") -> int:
        """``|Ans(query, target)|`` for a parsed query or query text."""
        if isinstance(query, str):
            from repro.queries.parser import parse_query

            query = parse_query(query)
        return self._answer_count_parsed(query, target, method)[0]

    def kg_answer_count(self, query, target, target_id=None) -> int:
        from repro.kg.engine_bridge import count_kg_answers_engine

        return count_kg_answers_engine(
            query, target, engine=self.engine, target_id=target_id,
        )

    def _answer_count_parsed(
        self, query, target, method: str, target_id=None, parent_span=None,
    ) -> tuple[int, str, bool]:
        """``(value, backend, cached)`` of ``|Ans(query, target)|`` by
        ``method``: ``'auto'`` goes direct for Boolean queries and runs
        the engine's answer plan otherwise.  ``target_id`` is the
        target's engine cache key (computed here when ``None`` and the
        route needs one)."""
        if method == "direct" or (method == "auto" and query.is_boolean()):
            from repro.queries.answers import count_answers_direct

            return count_answers_direct(query, target), "direct", False
        if target_id is None:
            from repro.engine.cache import target_key

            target_id = target_key(target)
        if method == "interpolation":
            from repro.queries.answers import count_answers_by_interpolation

            value = count_answers_by_interpolation(
                query, target, engine=self.engine, target_id=target_id,
            )
            return value, "interpolation", False
        value, cached, plan = self.engine.answer_count_detailed(
            query, target, target_id=target_id, parent_span=parent_span,
        )
        return value, plan.describe_for(target), cached

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def run(self, task: Task) -> Result:
        if isinstance(task, HomCountTask):
            return self._run_hom_count(task)
        if isinstance(task, AnswerCountTask):
            return self._run_answer_count(task)
        if isinstance(task, KgAnswerCountTask):
            return self._run_kg_answer_count(task)
        if isinstance(task, (WlDimensionTask, AnalyzeTask)):
            return self._run_query_analysis(task)
        if isinstance(task, TaskBatch):
            raise TaskError("run a TaskBatch through run_batch()")
        raise TaskError(f"cannot execute task kind {task.kind!r}")

    def cached(self, task: Task, serving=None) -> Result | None:
        """The result of a warm hom count from memory alone, or ``None``.

        The HTTP server calls this on its event loop before handing a
        request to the scheduler.  Only a :class:`HomCountTask` whose
        count and plan sit in the engine's in-memory caches hits
        (:meth:`~repro.engine.HomEngine.peek`): nothing is compiled,
        canonicalised, executed or read from the persistent store, and
        an inline target is fingerprinted at most once per task, so a
        miss costs the worker nothing extra.  ``serving`` is the dataset
        snapshot the caller admitted the request under (``None``:
        resolve the current one), so a hit answers that version.  A hit
        is the :class:`Result` :meth:`run` would build, ``cached=True``.
        """
        if not isinstance(task, HomCountTask):
            return None
        if isinstance(task.target, str):
            if serving is None:
                serving = self._serving(task.target, "graph")
            target_id = serving.target_id
        else:
            target_id = _inline_target_id(task)
        hit = self.engine.peek(task.pattern, target_id)
        return None if hit is None else self._run_hom_count(task, serving, hit)

    def _serving(self, name: str, kind: str):
        """One immutable serving-state snapshot for a named dataset."""
        return self.registry.get(name, kind=kind).serving

    def _run_hom_count(
        self, task: HomCountTask, serving=None, hit=None,
    ) -> Result:
        """Count (or, given the ``(value, plan)`` of a :meth:`cached`
        ``hit``, just report) ``task`` on the ``serving`` snapshot of its
        dataset, resolved here when ``None``."""
        engine = self.engine
        # leaf_span: warm cache hits are tens of microseconds, so this
        # span skips contextvar registration; the engine's cold-path
        # spans are handed `sp` explicitly instead of discovering it.
        sp = leaf_span("task.hom-count", executor=self.name)
        with sp:
            pattern = task.pattern
            version = None
            if isinstance(task.target, str):
                if serving is None:
                    serving = self._serving(task.target, "graph")
                version, target_name = serving.version, task.target
                target_graph, target_id = serving.graph, serving.target_id
            else:
                target_name = _graph_summary(task.target)
                target_graph = task.target
                target_id = _inline_target_id(task, sp)
            if hit is None:
                value, cached = engine.count_detailed(
                    pattern, target_graph, target_id=target_id, parent_span=sp,
                )
                plan = engine.plan_for(pattern, parent_span=sp)
            else:
                (value, plan), cached = hit, True
            backend = plan.describe_for(target_graph)
        _count_task(task.kind, self.name)
        provenance: dict = {
            "pattern": _graph_summary(pattern),
            "target": target_name,
        }
        if sp.live:
            sp.attrs["cached"] = cached
            provenance["trace"] = sp
        return _finish_task(task, Result(
            kind=task.kind,
            value=value,
            executor=self.name,
            backend=backend,
            cached=cached,
            version=version,
            provenance=provenance,
            elapsed_ms=sp.duration_ms,
        ), sp)

    def _run_answer_count(self, task: AnswerCountTask) -> Result:
        from repro.queries.parser import format_query

        sp = span("task.answer-count", executor=self.name)
        with sp:
            query = task.parsed()
            version = target_id = None
            if isinstance(task.target, str):
                serving = self._serving(task.target, "graph")
                host, version, target_name = (
                    serving.graph, serving.version, task.target,
                )
                target_id = serving.target_id
            else:
                host, target_name = task.target, _graph_summary(task.target)
            value, backend, cached = self._answer_count_parsed(
                query, host, task.method, target_id, sp,
            )
            sp.annotate(backend=backend)
        _count_task(task.kind, self.name)
        provenance: dict = {
            "query": task.query,
            "logic": format_query(query, style="logic"),
            "target": target_name,
        }
        if sp.live:
            provenance["trace"] = sp
        return _finish_task(task, Result(
            kind=task.kind,
            value=value,
            executor=self.name,
            backend=backend,
            cached=cached,
            version=version,
            provenance=provenance,
            elapsed_ms=sp.duration_ms,
        ), sp)

    def _run_kg_answer_count(self, task: KgAnswerCountTask) -> Result:
        from repro.service.wire import kg_query_to_spec

        sp = span("task.kg-answer-count", executor=self.name)
        with sp:
            version = None
            if isinstance(task.target, str):
                serving = self._serving(task.target, "kg")
                encoding, target_id = serving.kg_encoding, serving.target_id
                version, target_name = serving.version, task.target
            else:
                encoding, target_id = self._prepared_kg_encoding(task, sp)
                target_name = _kg_summary(task.target)
            value = self.kg_answer_count(
                task.query, encoding, target_id=target_id,
            )
        _count_task(task.kind, self.name)
        provenance: dict = {
            "kg_query": kg_query_to_spec(task.query),
            "target": target_name,
        }
        if sp.live:
            provenance["trace"] = sp
        return _finish_task(task, Result(
            kind=task.kind,
            value=value,
            executor=self.name,
            backend="kg-engine",
            version=version,
            provenance=provenance,
            elapsed_ms=sp.duration_ms,
        ), sp)

    def _prepared_kg_encoding(self, task: KgAnswerCountTask, parent=None):
        """Gadget-encode an inline KG target once per spec."""
        key = task.cache_key()
        entry = self._prepared.get(key)
        if entry is None:
            from repro.engine.cache import target_key
            from repro.kg.engine_bridge import encode_kg

            with child_span(parent, "task.encode.kg"):
                encoding = encode_kg(task.target)
                entry = (encoding, target_key(encoding.graph))
            self._prepared.put(key, entry)
        return entry


class ServiceExecutor(Executor):
    """Run task specs on a counting service over HTTP.

    Wraps a :class:`~repro.service.client.ServiceClient`; every spec
    travels as its canonical wire payload through ``POST /task`` and the
    service's scheduler (coalescing, backpressure) applies as for any
    other request.
    """

    name = "service"

    def __init__(self, client=None, host: str = "127.0.0.1", port: int = 8765) -> None:
        if client is None:
            from repro.service.client import ServiceClient

            client = ServiceClient(host=host, port=port)
        self.client = client

    def run(self, task: Task) -> Result:
        from repro.service.wire import result_from_wire

        payload = self.client.run_task(task)
        return result_from_wire(payload).with_executor(self.name)

    def run_batch(self, batch: TaskBatch) -> list[Result]:
        from repro.service.wire import result_from_wire

        payload = self.client.run_task(batch)
        return [
            result_from_wire(entry).with_executor(self.name)
            for entry in payload["results"]
        ]


class DynamicExecutor(Executor):
    """Bind task specs to maintained handles over dynamic targets.

    The first ``run`` of a counting spec subscribes a maintained handle
    (:class:`MaintainedCount` / :class:`MaintainedAnswerCount` /
    :class:`MaintainedKgAnswerCount`); subsequent runs read the handle's
    live value, so the spec tracks every ``apply``/``rollback`` of the
    target.  Dataset names resolve through the shared registry (whose
    datasets are dynamic streams already); inline graph/KG targets are
    wrapped in private dynamic streams keyed by the spec, which makes
    cross-executor equivalence checks uniform but snapshots the inline
    value at bind time.
    """

    name = "dynamic"

    def __init__(self, engine=None, registry=None, mode: str = "auto") -> None:
        self._engine = engine
        if registry is None:
            from repro.service.registry import DatasetRegistry

            registry = DatasetRegistry()
        self.registry = registry
        self.mode = mode
        self._handles = _PreparedCache(on_evict=self._close_handle)
        self._bind_lock = threading.Lock()

    @property
    def engine(self):
        if self._engine is not None:
            return self._engine
        from repro.engine import default_engine

        return default_engine()

    @staticmethod
    def _close_handle(entry) -> None:
        handle, _ = entry
        handle.close()

    def run(self, task: Task) -> Result:
        if isinstance(task, (WlDimensionTask, AnalyzeTask)):
            return self._run_query_analysis(task)
        if isinstance(task, TaskBatch):
            raise TaskError("run a TaskBatch through run_batch()")
        if not isinstance(
            task, (HomCountTask, AnswerCountTask, KgAnswerCountTask),
        ):
            raise TaskError(f"cannot execute task kind {task.kind!r}")
        if isinstance(task, AnswerCountTask) and task.method != "auto":
            # The maintained route is the only answer-count route here
            # (all routes agree on values, Lemma 22); normalising the
            # method keeps specs differing only in it on one shared
            # handle instead of duplicating subscriptions.
            task = AnswerCountTask(task.query, task.target)
        sp = span("task.maintained", executor=self.name, kind=task.kind)
        with sp:
            key = task.cache_key()
            for _ in range(3):
                entry = self._handle_for(task)
                handle, target_name = entry
                value = handle.value
                # A concurrent bind may have LRU-evicted (and closed) this
                # handle mid-read, in which case the value can miss updates
                # applied since the close; re-check and rebind if the entry
                # did not survive the read.  Each retry re-puts the entry as
                # most-recently-used, so a second eviction needs the whole
                # cache to churn again — three attempts in practice always
                # settle, and the bound rules out a livelock under
                # pathological spec churn.
                if self._handles.get(key) is entry:
                    break
            backend = getattr(handle, "method", "maintained")
        _count_task(task.kind, self.name)
        provenance = self._provenance(task, target_name)
        if sp.live:
            provenance["trace"] = sp
        return _finish_task(task, Result(
            kind=task.kind,
            value=value,
            executor=self.name,
            backend=f"maintained/{backend}",
            version=handle.version,
            provenance=provenance,
            elapsed_ms=sp.duration_ms,
        ), sp)

    def _provenance(self, task: Task, target_name) -> dict:
        if isinstance(task, HomCountTask):
            return {"pattern": _graph_summary(task.pattern), "target": target_name}
        if isinstance(task, AnswerCountTask):
            from repro.queries.parser import format_query

            return {
                "query": task.query,
                "logic": format_query(task.parsed(), style="logic"),
                "target": target_name,
            }
        from repro.service.wire import kg_query_to_spec

        return {"kg_query": kg_query_to_spec(task.query), "target": target_name}

    def _handle_for(self, task: Task):
        key = task.cache_key()
        entry = self._handles.get(key)
        if entry is None:
            # Serialise creation: binding subscribes a maintained handle,
            # and a lost race would leave an orphan subscription.
            with self._bind_lock:
                entry = self._handles.get(key)
                if entry is None:
                    entry = (self._bind(task), self._target_display(task))
                    self._handles.put(key, entry)
        return entry

    def _target_display(self, task: Task):
        if isinstance(task.target, str):
            return task.target
        if isinstance(task, KgAnswerCountTask):
            return _kg_summary(task.target)
        return _graph_summary(task.target)

    def _bind(self, task: Task):
        """Create the maintained handle a spec subscribes to."""
        engine = self.engine
        if isinstance(task, KgAnswerCountTask):
            from repro.dynamic.kg import (
                DynamicKnowledgeGraph,
                MaintainedKgAnswerCount,
            )

            if isinstance(task.target, str):
                stream = self.registry.get(task.target, kind="kg").dynamic_kg
            else:
                stream = DynamicKnowledgeGraph(task.target)
            return MaintainedKgAnswerCount(task.query, stream, engine=engine)
        from repro.dynamic.graph import DynamicGraph
        from repro.dynamic.maintained import (
            MaintainedAnswerCount,
            MaintainedCount,
        )

        if isinstance(task.target, str):
            stream = self.registry.get(task.target, kind="graph").dynamic
        else:
            stream = DynamicGraph(task.target)
        if isinstance(task, HomCountTask):
            return MaintainedCount(
                task.pattern, stream, engine=engine, mode=self.mode,
            )
        return MaintainedAnswerCount(
            task.parsed(), stream, engine=engine, mode=self.mode,
        )

    def close(self) -> None:
        """Close every maintained handle this executor created."""
        self._handles.clear()

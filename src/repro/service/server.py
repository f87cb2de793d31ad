"""The counting service: HTTP/JSON API over a shared engine.

Layers (top to bottom):

* :class:`ServiceServer` — a minimal HTTP/1.1 loop on
  ``asyncio.start_server`` (stdlib only: keep-alive connections,
  ``Content-Length`` bodies, JSON or Prometheus text) around any
  object with ``handle`` and ``start()``/``stop()``: a
  :class:`CountingService`, or the cluster's
  :class:`~repro.cluster.router.ClusterRouter`.  The two framing helpers,
  :func:`encode_message` and :func:`read_message`, also carry the
  router's calls to its workers.  :class:`ServingThread` (the base of
  :class:`BackgroundServer` and :class:`~repro.cluster.Cluster`) runs a
  server on a loop in a daemon thread; :func:`serve_blocking` (behind
  :func:`run_server` and ``repro cluster``) runs one until interrupted;
* :class:`CountingService` — the operations.  Every counting route is
  ``POST /task``: the verbs (``/count``, ``/count-answers``, ``/wl-dim``,
  ``/analyze``) are aliases that fill in the task kind
  (:func:`task_body`) and differ only in response shape.  One handler
  decodes the body into its canonical
  :mod:`repro.api.tasks` spec, runs it on a
  :class:`~repro.api.executors.LocalExecutor` bound to the service's
  engine and registry, and goes through the
  :class:`~repro.service.scheduler.RequestScheduler` under one key: the
  body plus the content (version) of every dataset it names.  Identical
  concurrent requests coalesce, whichever of the routes they came by.
  A warm hom count — its count and plan already in the engine's memory —
  is answered on the event loop by the executor's memory-only probe;
  every other request runs on a scheduler worker;
* one :class:`~repro.engine.HomEngine` shared by all workers (its caches
  are lock-guarded), optionally backed by a
  :class:`~repro.service.store.PersistentStore` so plans and counts
  survive restarts.

The service installs its engine as the process-wide default
(:func:`repro.engine.set_default_engine`), so library paths reached from
request handlers — Lemma-22 interpolation in particular — ride the same
caches.  ``CountingService.close()`` (run by ``stop()``, so by
``BackgroundServer.stop()``) restores the previous default.

Errors travel as structured payloads: ``{"kind": "error", "error":
message, "code": stable-code}`` with the code taken from the
:mod:`repro.errors` hierarchy.

Routes
------
``POST /task``             any canonical task payload (``{"task": kind, ...}``),
                           answered with the full result payload
``POST /count``            ``{"pattern": graphspec, "target": name|graphspec}``
``POST /count-answers``    ``{"query": text, "target": name|graphspec}`` or
                           ``{"kg_query": kgqueryspec, "target": name|kgspec}``
``POST /wl-dim``           ``{"query": text}``
``POST /analyze``          ``{"query": text}``
                           (the four verbs answer in their per-verb shape,
                           :func:`~repro.service.wire.result_to_payload`)
``POST /register-dataset`` ``{"name": str, "graph": graphspec}`` or
                           ``{"name": str, "kg": kgspec}`` (exactly one)
``GET  /stats``, ``GET /datasets``, ``GET /health``
``GET  /metrics``          Prometheus text (``?format=json`` for the JSON
                           snapshot) of the process metrics registry
``GET  /traces``           recent and recent-slow span trees (``?limit=n``)
``GET  /profile``          the sampling profiler's snapshot
                           (``?format=collapsed`` for flame-graph text)
``POST /profile``          ``{"action": "start"|"stop"|"snapshot", ...}``
                           controls the process-global profiler
``GET  /slow-queries``     the slow-query log (``?limit=n``; an optional
                           ``threshold_ms`` retunes the capture threshold)
``GET  /healthz``          liveness: every registered health probe, 503
                           while any probe is failing
``GET  /readyz``           readiness: the gating probes (scheduler
                           workers, store writability) plus the dataset
                           count, 503 until the process should take
                           traffic
``GET  /slo``              objective attainment + burn rates over the
                           rolling SLO windows (``REPRO_SLO`` grammar)
``GET  /alerts``           the alert rule engine's current state
                           (evaluated on request)

Every HTTP response carries the request's trace id in an
``X-Repro-Trace`` header; error payloads (status >= 400) repeat it as a
``trace_id`` field so clients can quote it when reporting problems.
Requests may send their own ``X-Repro-Trace``: the server's root span
adopts it, linking server-side spans into the caller's trace.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sys
import threading
from functools import partial
from urllib.parse import parse_qsl

from repro.api.executors import LocalExecutor
from repro.api.session import Session
from repro.api.tasks import HomCountTask, TaskBatch
from repro.engine import HomEngine, set_default_engine
from repro.engine.engine import engine_metric_families
from repro.errors import ReproError, ServiceError
from repro.obs import (
    family_snapshot,
    get_logger,
    log_event,
    observe_slo,
    profile_snapshot,
    recent_traces,
    registry as metrics_registry,
    render_collapsed,
    set_slowlog_threshold_ms,
    slow_queries,
    slow_traces,
    slowlog_threshold_ms,
    span,
    span_to_dict,
    start_profiling,
    stop_profiling,
)
from repro.obs.alerts import AlertManager, burn_rate_rule, probe_rule, threshold_rule
from repro.obs.health import (
    FAILING,
    EventLoopLagMonitor,
    GcPauseTracker,
    HealthRegistry,
    MemoryWatermarkProbe,
    degraded as probe_degraded,
    failing as probe_failing,
    ok as probe_ok,
)
from repro.obs.slo import tracker as slo_tracker
from repro.service.registry import DatasetRegistry, RegistryError
from repro.service.scheduler import RequestScheduler
from repro.service.store import PersistentStore
from repro.service.wire import (
    WireError,
    alerts_payload,
    error_payload,
    graph_from_spec,
    health_payload,
    kg_from_spec,
    kg_query_from_spec,
    readiness_payload,
    result_to_payload,
    result_to_wire,
    slo_payload,
    subscription_payload,
    target_update_payload,
    task_from_wire,
    update_from_spec,
)

_MAX_BODY = 32 * 1024 * 1024
#: Once a request line has arrived, its headers and body must follow
#: within this many seconds.  Idle time between requests is unbounded.
_READ_TIMEOUT_S = 30.0

_log = get_logger("server")

# Meta/introspection routes stay out of the SLO windows: a burst of
# monitoring traffic must never burn a workload's error budget.
_SLO_EXEMPT_ROUTES = frozenset({
    "/health", "/healthz", "/readyz", "/metrics", "/slo", "/alerts",
    "/stats", "/traces", "/profile", "/slow-queries",
})


def _bad_request(message: str) -> dict:
    return {"kind": "error", "error": message, "code": "bad-request"}


def _require(body: dict, field: str):
    if field not in body:
        raise WireError(f"request is missing the {field!r} field")
    return body[field]


def _limit(body: dict) -> int:
    """The positive-integer ``limit`` option (query strings send text)."""
    limit = body.get("limit", 20)
    if isinstance(limit, str):
        try:
            limit = int(limit)
        except ValueError:
            raise WireError(f"'limit' must be an integer, got {limit!r}")
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise WireError(f"'limit' must be a positive integer, got {limit!r}")
    return limit


# The verb routes are aliases of POST /task: each fills in its task kind.
_VERB_KINDS = {
    "/count": "hom-count",
    "/count-answers": "answer-count",
    "/wl-dim": "wl-dimension",
    "/analyze": "analyze",
}


def task_body(path: str, body: dict) -> dict:
    """The ``POST /task`` body a counting request stands for: a verb
    alias fills in its task kind (``/count-answers`` takes a KG query
    when the body carries ``kg_query``); a ``/task`` body is its own.
    The service keys its scheduler on it and the cluster router places
    requests by its digest, so a verb and a ``/task`` request with one
    body are one job on one worker."""
    kind = _VERB_KINDS.get(path)
    if kind is None:
        return body
    if kind == "answer-count" and "kg_query" in body:
        kind = "kg-answer-count"
    return {**body, "task": kind}


def metrics_response(body: dict) -> tuple[int, dict | str]:
    """``GET /metrics`` on this process's registry, for the service and
    the cluster router alike: Prometheus text, or the JSON snapshot for
    ``format=json``; any other format is a 400."""
    fmt = body.get("format", "prometheus")
    if fmt == "json":
        return 200, {"kind": "metrics", "metrics": metrics_registry().snapshot()}
    if fmt not in ("prometheus", "text"):
        return 400, _bad_request(f"unknown metrics format {fmt!r}")
    return 200, metrics_registry().render_prometheus()


class CountingService:
    """The request handlers behind the HTTP routes (transport-agnostic)."""

    def __init__(
        self,
        data_dir: str | None = None,
        workers: int = 4,
        max_queue: int = 256,
        engine: HomEngine | None = None,
        install_default_engine: bool = True,
    ) -> None:
        if engine is not None and data_dir is not None:
            raise ServiceError("pass either an engine or a data_dir, not both")
        if engine is None:
            self.store = PersistentStore(data_dir) if data_dir else None
            engine = HomEngine(store=self.store)
        else:
            self.store = engine.store
        self.engine = engine
        self.registry = DatasetRegistry()
        # All counting routes execute their task specs on this session,
        # over the service engine and registry.
        self.session = Session(
            executor=LocalExecutor(engine=engine, registry=self.registry),
        )
        self.scheduler = RequestScheduler(workers=workers, max_queue=max_queue)
        self.request_counts: dict[str, int] = {}
        self.error_counts: dict[tuple[str, str], int] = {}
        self._request_ms = metrics_registry().histogram(
            "repro_server_request_ms",
            "End-to-end request handling latency per route.",
            labelnames=("route",),
        )
        # --- health / SLO / alert layer -------------------------------
        self.health = HealthRegistry()
        self.loop_monitor = EventLoopLagMonitor()
        self.gc_tracker = GcPauseTracker()
        self.gc_tracker.install()
        self.memory_probe = MemoryWatermarkProbe()
        self.slo = slo_tracker()
        self.alerts = AlertManager()
        self.health.register("event-loop", self.loop_monitor.probe)
        self.health.register("gc-pause", self.gc_tracker.probe)
        self.health.register("memory", self.memory_probe.probe)
        self.health.register("scheduler-workers", self._probe_scheduler_workers)
        self.health.register("scheduler-queue", self._probe_scheduler_queue)
        self.health.register("store-write", self._probe_store)
        self.health.register("dynamic-journal", self._probe_journals)
        for rule in (
            probe_rule(self.health, "event-loop", severity="page"),
            probe_rule(self.health, "scheduler-workers", severity="page"),
            probe_rule(self.health, "memory"),
            probe_rule(self.health, "store-write", severity="page",
                       fire_on=("failing",)),
            threshold_rule(
                "scheduler-queue-saturation",
                self.scheduler.queue_saturation,
                0.8,
                description="scheduler queue over 80% of max_queue",
            ),
        ):
            self.alerts.add_rule(*rule)
        # Burn-rate rules cover the objectives configured at construction
        # (REPRO_SLO or a prior configure_slo()); objectives added later
        # still show on /slo, just without a pre-built alert rule.
        for objective in self.slo.objectives:
            self.alerts.add_rule(*burn_rate_rule(self.slo, objective))
        metrics_registry().register_collector(self._collect_metrics)
        metrics_registry().register_collector(self._collect_health)
        self._routes = {
            **{
                ("POST", path): partial(self._op_task, path=path)
                for path in ("/task", *_VERB_KINDS)
            },
            ("POST", "/register-dataset"): self._op_register,
            ("POST", "/target-update"): self._op_target_update,
            ("POST", "/subscribe"): self._op_subscribe,
            ("GET", "/subscriptions"): self._op_subscriptions,
            ("GET", "/stats"): self._op_stats,
            ("GET", "/datasets"): self._op_datasets,
            ("GET", "/health"): self._op_health,
            ("GET", "/healthz"): self._op_healthz,
            ("GET", "/readyz"): self._op_readyz,
            ("GET", "/slo"): self._op_slo,
            ("GET", "/alerts"): self._op_alerts,
            ("GET", "/metrics"): self._op_metrics,
            ("GET", "/traces"): self._op_traces,
            ("GET", "/profile"): self._op_profile,
            ("POST", "/profile"): self._op_profile_control,
            ("GET", "/slow-queries"): self._op_slow_queries,
        }
        # Updates and subscription creations are stateful: each submission
        # gets a unique scheduler key (never coalesced); per-dataset
        # serialisation happens on the dynamic graph's lock.
        self._sequence = 0
        self._sequence_lock = threading.Lock()
        self._previous_default: tuple | None = None
        if install_default_engine:
            self._previous_default = (set_default_engine(self.engine),)

    def restore_default_engine(self) -> None:
        """Undo the ``set_default_engine`` performed at construction."""
        if self._previous_default is not None:
            set_default_engine(self._previous_default[0])
            self._previous_default = None

    def close(self) -> None:
        """Release held resources (the persistent store's append handle)
        and restore the previous default engine."""
        metrics_registry().unregister_collector(self._collect_metrics)
        metrics_registry().unregister_collector(self._collect_health)
        self.loop_monitor.stop()
        self.gc_tracker.uninstall()
        if self.store is not None:
            self.store.close()
        self.restore_default_engine()

    # ------------------------------------------------------------------
    # lifecycle (awaited by the transport around listening)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler and attach the event-loop lag watchdog to
        the serving loop."""
        await self.scheduler.start()
        self.loop_monitor.start(asyncio.get_running_loop())

    async def stop(self) -> None:
        self.loop_monitor.stop()
        await self.scheduler.stop()
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(
        self, method: str, path: str, body: dict,
        client_trace: str | None = None,
    ) -> tuple[int, dict | str, str | None]:
        """Dispatch one request: ``(status, payload, trace_id)``.

        The whole request runs under a root ``server.request`` span, so
        scheduler hops and engine work nest under one trace; the trace id
        is echoed in the transport's ``X-Repro-Trace`` header and, for
        error payloads, in an additive ``trace_id`` field.  When the
        caller sent its own ``X-Repro-Trace`` (``client_trace``), the
        root span adopts that id, so server-side spans land in the trace
        rings under the caller's trace.  Unexpected handler exceptions
        become structured 500s with an error log.
        """
        route = (method.upper(), path.rstrip("/") or "/")
        handler = self._routes.get(route)
        if handler is None:
            name = "<unknown>"
            self.error_counts[(name, "unknown-route")] = (
                self.error_counts.get((name, "unknown-route"), 0) + 1
            )
            return 404, {
                "kind": "error",
                "error": f"no route {method.upper()} {path}",
                "code": "unknown-route",
            }, None
        name = route[1]
        self.request_counts[name] = self.request_counts.get(name, 0) + 1
        status = 200
        sp = span("server.request", route=name, method=route[0])
        with sp:
            sp.adopt_trace(client_trace)
            try:
                payload: dict | str = await handler(body)
                # Health-style handlers return (status, payload) so a
                # degraded verdict can travel as a 503 without being an
                # error payload.
                if isinstance(payload, tuple):
                    status, payload = payload
            except RegistryError as error:
                status, payload = 404, error_payload(error)
            except ReproError as error:
                status, payload = 400, error_payload(error)
            except Exception as error:  # noqa: BLE001 - a 500, not a crash
                status = 500
                payload = {
                    "kind": "error",
                    "error": f"{type(error).__name__}: {error}",
                    "code": "internal-error",
                }
            sp.annotate(status=status)
        self._request_ms.labels(route=name).observe(sp.duration_ms)
        if name not in _SLO_EXEMPT_ROUTES:
            observe_slo(
                name.lstrip("/"), sp.duration_ms, error=status >= 500,
            )
        if (
            status >= 400
            and isinstance(payload, dict)
            and payload.get("kind") == "error"
        ):
            code = str(payload.get("code", "internal-error"))
            self.error_counts[(name, code)] = (
                self.error_counts.get((name, code), 0) + 1
            )
            if sp.trace_id is not None:
                payload = {**payload, "trace_id": sp.trace_id}
            if status >= 500:
                log_event(
                    _log, logging.ERROR, "request-error",
                    route=name, status=status, code=code,
                    error=str(payload.get("error", "")),
                    **({"trace_id": sp.trace_id} if sp.trace_id else {}),
                )
        return status, payload, sp.trace_id

    # ------------------------------------------------------------------
    # counting: POST /task and its verb aliases
    # ------------------------------------------------------------------
    def _dataset_snapshot(self, task):
        """The serving snapshot of a task's dataset target at admission;
        ``None`` for an inline target, whose content the request body
        already carries.

        Its content token keys the job.  Content, not the name: it
        changes with every dataset version, so a read admitted after a
        ``target-update`` never joins a job that started before it.  The
        warm-hit probe reads this same snapshot, so a hit is always the
        admitted version.  A job reads its own single snapshot when it
        runs — graph and cache key always come from one version — so a
        coalesced waiter may receive a count for a version *newer* than
        its admission (committed while the request was in flight), never
        a mix of versions.  Resolving here also 404s unknown names before
        any work is scheduled."""
        target = getattr(task, "target", None)
        if not isinstance(target, str):
            return None
        kind = "kg" if task.kind == "kg-answer-count" else "graph"
        return self.registry.get(target, kind=kind).serving

    async def _op_task(self, body: dict, path: str) -> dict:
        """Every counting route: ``POST /task`` answers the full result
        payload; a verb alias answers in its per-verb shape.

        Admission runs on the event loop.  The scheduler key is the
        :func:`task_body` plus its dataset tokens: identical bodies
        decode to equal tasks, so coalesced callers share query text and
        target name, and a verb and a ``/task`` request with one body
        share one job.  A single hom count also carries the executor's
        memory-only probe (:meth:`LocalExecutor.cached`), which the
        scheduler tries on the loop when no identical job is in flight:
        a warm count is answered there without a worker-thread hop.
        Every other kind, and every batch, runs on a worker.
        """
        body = task_body(path, body)
        task = task_from_wire(body)
        members = task if isinstance(task, TaskBatch) else (task,)
        snapshots = [self._dataset_snapshot(member) for member in members]
        key = (
            json.dumps(body, sort_keys=True),
            tuple(None if s is None else s.content_token for s in snapshots),
        )
        if isinstance(task, TaskBatch):
            results = await self.scheduler.submit(
                key, lambda: self.session.run_batch(task),
            )
            return {
                "kind": "result-batch",
                "results": [result_to_wire(result) for result in results],
            }
        probe = None
        if isinstance(task, HomCountTask):
            probe = partial(self.session.executor.cached, task, snapshots[0])
        result = await self.scheduler.submit(
            key, lambda: self.session.run(task), probe=probe,
        )
        return result_to_wire(result) if path == "/task" else result_to_payload(result)

    async def _op_register(self, body: dict) -> dict:
        name = _require(body, "name")
        if not isinstance(name, str) or not name:
            raise WireError("dataset name must be a non-empty string")
        # Registration is the heaviest non-counting operation (spec
        # decoding, IndexedGraph pre-encoding, KG gadget encoding); run
        # it on the executor so the event loop keeps serving health
        # checks and completed counts meanwhile.  The registry is
        # lock-guarded, so worker-thread writes are safe.
        if ("graph" in body) == ("kg" in body):
            raise WireError("register-dataset needs exactly one of 'graph' and 'kg'")
        if "kg" in body:
            def build():
                return self.registry.register_kg(name, kg_from_spec(body["kg"]))
        else:
            def build():
                return self.registry.register_graph(name, graph_from_spec(body["graph"]))
        dataset = await asyncio.get_running_loop().run_in_executor(None, build)
        return {"kind": "register-dataset", "dataset": dataset.summary()}

    # ------------------------------------------------------------------
    # dynamic targets
    # ------------------------------------------------------------------
    def _next_sequence(self) -> int:
        with self._sequence_lock:
            self._sequence += 1
            return self._sequence

    def _subscription_payloads(self, dataset) -> list[dict]:
        """Payloads for every subscription of ``dataset``.

        Reading a handle's value may trigger a lazy (engine-backed)
        refresh, so callers must run this on a worker/executor thread —
        never on the event loop.
        """
        return [
            subscription_payload(subscription_id, dataset.name, handle)
            for subscription_id, handle in sorted(dataset.subscriptions.items())
        ]

    async def _op_target_update(self, body: dict) -> dict:
        """Advance a registered dataset's version by one update batch.

        The batch is applied — and every subscribed maintained count
        refreshed (delta or fallback recompute) and serialised into the
        response — on a scheduler worker, so updates queue behind
        counting traffic under the same backpressure, and heavy
        refreshes never block the event loop.
        """
        name = _require(body, "target")
        if not isinstance(name, str):
            raise WireError("'target' must be a registered dataset name")
        kind = self.registry.get(name).kind  # validate before scheduling
        update = update_from_spec(kind, body)

        def fn() -> dict:
            if kind == "kg":
                updated, record = self.registry.update_kg(name, **update)
            else:
                updated, record = self.registry.update_graph(name, update)
            return target_update_payload(
                name,
                record.version,
                record.applied_summary(),
                record.patched,
                updated.stats,
                self._subscription_payloads(updated),
            )

        key = ("target-update", name, self._next_sequence())
        return await self.scheduler.submit(key, fn)

    async def _op_subscribe(self, body: dict) -> dict:
        """Create a maintained count for a registered dataset.

        ``{"target": name, "pattern": graphspec}`` maintains a
        homomorphism count; ``{"target": name, "query": text}`` a CQ
        answer count; ``{"target": name, "kg_query": spec}`` a KG answer
        count.  The handle refreshes on every ``target-update``.
        """
        from repro.dynamic.kg import MaintainedKgAnswerCount
        from repro.dynamic.maintained import (
            MaintainedAnswerCount,
            MaintainedCount,
        )

        name = _require(body, "target")
        if not isinstance(name, str):
            raise WireError("'target' must be a registered dataset name")
        subscription_id = body.get("id")
        if subscription_id is None:
            subscription_id = f"sub-{self._next_sequence()}"
        if not isinstance(subscription_id, str) or not subscription_id:
            raise WireError("subscription 'id' must be a non-empty string")
        engine = self.engine
        if "kg_query" in body:
            dataset = self.registry.get(name, kind="kg")
            query = kg_query_from_spec(body["kg_query"])

            def fn():
                return MaintainedKgAnswerCount(
                    query, dataset.dynamic_kg, engine=engine,
                )
        elif "query" in body:
            from repro.queries.parser import parse_query

            dataset = self.registry.get(name, kind="graph")
            query = parse_query(body["query"])

            def fn():
                return MaintainedAnswerCount(
                    query, dataset.dynamic, engine=engine,
                )
        elif "pattern" in body:
            dataset = self.registry.get(name, kind="graph")
            pattern = graph_from_spec(body["pattern"])

            def fn():
                return MaintainedCount(pattern, dataset.dynamic, engine=engine)
        else:
            raise WireError(
                "subscribe needs a 'pattern', 'query', or 'kg_query' field",
            )

        def create_and_register() -> dict:
            handle = fn()
            previous = dataset.subscriptions.get(subscription_id)
            if previous is not None:
                previous.close()
            dataset.subscriptions[subscription_id] = handle
            return subscription_payload(subscription_id, name, handle)

        key = ("subscribe", name, self._next_sequence())
        payload = await self.scheduler.submit(key, create_and_register)
        return {"kind": "subscribe", "subscription": payload}

    async def _op_subscriptions(self, body: dict) -> dict:
        # Handle values may lazily recompute: keep them off the event loop.
        def collect() -> list[dict]:
            payloads: list[dict] = []
            for name in self.registry.names():
                payloads.extend(
                    self._subscription_payloads(self.registry.get(name)),
                )
            return payloads

        payloads = await asyncio.get_running_loop().run_in_executor(
            None, collect,
        )
        return {"kind": "subscriptions", "subscriptions": payloads}

    async def _op_stats(self, body: dict) -> dict:
        return self.stats_payload()

    async def _op_datasets(self, body: dict) -> dict:
        return {"kind": "datasets", "datasets": self.registry.summary()}

    async def _op_health(self, body: dict) -> dict:
        """Aggregated probe verdict (always 200; status tells the story).

        ``kind``/``status`` are byte-compatible with the pre-PR-9 stub
        when everything is healthy; ``probes``/``reasons`` are additive.
        Probes may touch the disk (store write-probe), so they run off
        the event loop.
        """
        report = await asyncio.get_running_loop().run_in_executor(
            None, self.health.check,
        )
        return health_payload(report)

    async def _op_healthz(self, body: dict):
        """Liveness: 503 while any probe is failing, 200 otherwise."""
        report = await asyncio.get_running_loop().run_in_executor(
            None, self.health.check,
        )
        payload = health_payload(report, kind="healthz")
        return (503 if report.status == FAILING else 200, payload)

    async def _op_readyz(self, body: dict):
        """Readiness: the gating probes (scheduler workers up, store
        writable) plus the registered dataset count.  503 until the
        process should receive traffic."""
        gate = [
            name for name in ("scheduler-workers", "store-write")
            if name in self.health.names()
        ]
        report = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.health.check(names=gate),
        )
        ready = report.status != FAILING
        payload = readiness_payload(
            report, ready, datasets=len(self.registry.names()),
        )
        return (200 if ready else 503, payload)

    async def _op_slo(self, body: dict) -> dict:
        return slo_payload(self.slo.report())

    async def _op_alerts(self, body: dict) -> dict:
        # Rule checks run probes (which may touch disk): off the loop.
        states = await asyncio.get_running_loop().run_in_executor(
            None, self.alerts.evaluate,
        )
        return alerts_payload(states)

    async def _op_metrics(self, body: dict):
        return metrics_response(body)

    async def _op_traces(self, body: dict) -> dict:
        """Recent and recent-slow completed span trees."""
        limit = _limit(body)
        return {
            "kind": "traces",
            "recent": [span_to_dict(trace) for trace in recent_traces(limit)],
            "slow": [span_to_dict(trace) for trace in slow_traces(limit)],
        }

    async def _op_profile(self, body: dict) -> dict | str:
        """The sampling profiler's aggregated snapshot.

        ``?format=collapsed`` answers flame-graph-ready collapsed-stack
        text; the default JSON snapshot carries per-span sample totals
        and the heaviest stacks.
        """
        fmt = body.get("format", "json")
        if fmt == "collapsed":
            return render_collapsed()
        if fmt != "json":
            raise WireError(f"unknown profile format {fmt!r}")
        return {"kind": "profile", "profile": profile_snapshot()}

    async def _op_profile_control(self, body: dict) -> dict:
        """Start/stop the process-global profiler at runtime."""
        action = _require(body, "action")
        if action == "start":
            interval = body.get("interval_ms", 5.0)
            try:
                interval = float(interval)
            except (TypeError, ValueError):
                raise WireError(
                    f"'interval_ms' must be a number, got {interval!r}",
                )
            profiler = start_profiling(
                interval_ms=interval,
                keep_idle=bool(body.get("keep_idle", False)),
            )
            return {
                "kind": "profile",
                "running": True,
                "interval_ms": profiler.interval_ms,
            }
        if action == "stop":
            return {"kind": "profile", "profile": stop_profiling()}
        if action == "snapshot":
            return {"kind": "profile", "profile": profile_snapshot()}
        raise WireError(f"unknown profile action {action!r}")

    async def _op_slow_queries(self, body: dict) -> dict:
        """The slow-query log, newest last."""
        limit = _limit(body)
        threshold = body.get("threshold_ms")
        if threshold is not None:
            try:
                set_slowlog_threshold_ms(float(threshold))
            except (TypeError, ValueError):
                raise WireError(
                    f"'threshold_ms' must be a number >= 0, got {threshold!r}",
                )
        return {
            "kind": "slow-queries",
            "threshold_ms": slowlog_threshold_ms(),
            "slow_queries": slow_queries(limit),
        }

    def stats_payload(self) -> dict:
        from repro.service.wire import dynamic_stats_payload

        return {
            "kind": "stats",
            "engine": self.engine.stats_summary(),
            "scheduler": self.scheduler.stats.snapshot(),
            "datasets": self.registry.summary(),
            "dynamic": {
                name: dynamic_stats_payload(self.registry.get(name).stats)
                for name in self.registry.names()
            },
            "persistent": (
                self.store.summary() if self.store is not None else None
            ),
            "requests": dict(self.request_counts),
            # Additive: the full metrics snapshot rides along for callers
            # that want one stop; all pre-existing fields are unchanged.
            "metrics": metrics_registry().snapshot(),
        }

    # ------------------------------------------------------------------
    # health probes
    # ------------------------------------------------------------------
    def _probe_scheduler_workers(self):
        scheduler = self.scheduler
        if not scheduler.running:
            return probe_failing("scheduler is not running")
        return probe_ok(
            None, alive=scheduler.workers_alive, configured=scheduler.workers,
        )

    def _probe_scheduler_queue(self):
        saturation = self.scheduler.queue_saturation()
        data = {
            "saturation": round(saturation, 4),
            "max_queue": self.scheduler.max_queue,
        }
        if saturation >= 1.0:
            return probe_degraded(
                "scheduler queue is full (submitters are blocked)", **data,
            )
        return probe_ok(None, **data)

    def _probe_store(self):
        if self.store is None:
            return probe_ok("no persistent store configured")
        try:
            path = self.store.write_probe()
        except OSError as error:
            return probe_failing(
                f"store write failed: {error}", path=self.store.path,
            )
        return probe_ok(None, path=path)

    def _probe_journals(self):
        saturated: list[str] = []
        entries: dict[str, int] = {}
        for name in self.registry.names():
            dataset = self.registry.get(name)
            holder = getattr(dataset, "dynamic", None) or getattr(
                dataset, "dynamic_kg", None,
            )
            if holder is None:
                continue
            info = holder.journal_info()
            entries[name] = info["entries"]
            if info["saturated"]:
                saturated.append(name)
        if saturated:
            return probe_degraded(
                "update journal at capacity (oldest provenance evicted) "
                f"for: {', '.join(sorted(saturated))}",
                **entries,
            )
        return probe_ok(None, **entries)

    # ------------------------------------------------------------------
    # metrics export
    # ------------------------------------------------------------------
    def _collect_health(self) -> list[tuple[str, dict]]:
        """Scrape-time export of probe statuses and alert states."""
        return list(self.health.metric_families()) + list(
            self.alerts.metric_families(),
        )

    def _collect_metrics(self) -> list[tuple[str, dict]]:
        """Scrape-time export of service state as metric families."""
        families = list(self.scheduler.metric_families())
        requests = [
            ({"route": route}, count)
            for route, count in sorted(self.request_counts.items())
        ]
        errors = [
            ({"route": route, "code": code}, count)
            for (route, code), count in sorted(self.error_counts.items())
        ]
        families.append(family_snapshot(
            "repro_server_requests_total", "counter", requests,
            help="Requests handled per route.",
        ))
        families.append(family_snapshot(
            "repro_server_errors_total", "counter", errors,
            help="Error responses per route and stable error code.",
        ))
        # The default-engine collector (repro.engine) already exports the
        # service engine when it is installed as the process default; only
        # export it here when it is a private engine.
        from repro.engine import engine as engine_module

        if self.engine is not engine_module._default_engine:
            families.extend(engine_metric_families(self.engine, label="service"))
        dynamic_events: list[tuple[dict, int | float]] = []
        journals: list[tuple[dict, int | float]] = []
        for dataset_name in self.registry.names():
            dataset = self.registry.get(dataset_name)
            stats = getattr(dataset, "stats", None)
            if stats is None:
                continue
            snapshot = stats.snapshot()
            for field, value in snapshot.items():
                if field.endswith("_ratio"):
                    continue
                dynamic_events.append(
                    ({"dataset": dataset_name, "event": field}, value),
                )
            holder = getattr(dataset, "dynamic", None) or getattr(
                dataset, "dynamic_kg", None,
            )
            journal = getattr(holder, "journal", None)
            if journal is not None:
                journals.append(({"dataset": dataset_name}, len(journal)))
        families.append(family_snapshot(
            "repro_dynamic_events_total", "counter", dynamic_events,
            help="Dynamic-target update and refresh events per dataset.",
        ))
        families.append(family_snapshot(
            "repro_dynamic_journal_entries", "gauge", journals,
            help="Update-journal entries retained per dynamic dataset.",
        ))
        return families


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 503: "Service Unavailable",
}


def encode_message(
    start_line: str,
    payload: dict | str | None,
    trace_id: str | None = None,
    host: str | None = None,
    close: bool = False,
) -> bytes:
    """One HTTP/1.1 message, request or response: a dict travels as
    JSON (``None`` as an empty JSON body), a string as Prometheus text.
    The connection stays open for the next message unless ``close``."""
    if isinstance(payload, str):
        data = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        data = json.dumps(payload).encode("utf-8") if payload is not None else b""
        content_type = "application/json"
    host_header = f"Host: {host}\r\n" if host else ""
    trace_header = f"X-Repro-Trace: {trace_id}\r\n" if trace_id else ""
    return (
        f"{start_line}\r\n"
        f"{host_header}"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"{trace_header}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    ).encode("ascii") + data


async def read_message(
    reader: asyncio.StreamReader,
    max_body: int | None = None,
    timeout: float | None = None,
) -> tuple[list[str], dict[str, str], bytes] | None:
    """Read one HTTP/1.1 message: the fields of its start line, its
    headers (names lower-cased) and its ``Content-Length`` body, or
    ``None`` when the stream ends before a start line.

    Once the start line has arrived, the rest must follow within
    ``timeout`` seconds (else ``asyncio.TimeoutError``); a stream that
    ends inside the message raises ``asyncio.IncompleteReadError``.  A
    message whose end cannot be found — any ``Transfer-Encoding``, a
    ``Content-Length`` that is not a number — or whose body is longer
    than ``max_body`` (left unread) raises ``ValueError``: the stream
    then carries no further message."""
    start = await reader.readline()
    if not start:
        return None
    headers, body = await asyncio.wait_for(
        _read_headers_and_body(reader, max_body), timeout,
    )
    return start.decode("ascii", "replace").split(), headers, body


async def _read_headers_and_body(
    reader: asyncio.StreamReader, max_body: int | None,
) -> tuple[dict[str, str], bytes]:
    headers: dict[str, str] = {}
    while (line := await reader.readline()) not in (b"\r\n", b"\n"):
        if not line.endswith(b"\n"):
            raise asyncio.IncompleteReadError(line, None)
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ValueError(
            "chunked request bodies are not supported; send Content-Length",
        )
    length = headers.get("content-length", "0")
    if not length.isdigit():
        raise ValueError(f"bad Content-Length {length!r}")
    if max_body is not None and int(length) > max_body:
        raise ValueError("request body too large")
    return headers, await reader.readexactly(int(length))


class ServiceServer:
    """Serve a request handler on a TCP port (asyncio, HTTP/1.1).

    The served object — a :class:`CountingService`, or the cluster's
    :class:`~repro.cluster.router.ClusterRouter` — answers
    ``handle(method, path, body, client_trace)`` and has ``start()`` and
    ``stop()`` coroutines, awaited before listening and after closing.

    A connection carries requests one after another until the client
    closes it or asks to (``Connection: close``, or HTTP/1.0), or a
    request's framing breaks (answered 400, then closed).  :meth:`stop`
    closes idle connections at once and answering ones after their
    response.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        #: Open connections, each with the task serving it.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: Connections whose request is read and not yet answered.
        self._answering: set[asyncio.StreamWriter] = set()
        self._closing = False

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            self._closing = True
            for writer in self._connections.keys() - self._answering:
                writer.close()
            await asyncio.gather(
                *self._connections.values(), return_exceptions=True,
            )
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server is not started")
        await self._server.serve_forever()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while not self._closing:
                try:
                    message = await read_message(reader, _MAX_BODY, _READ_TIMEOUT_S)
                except ValueError as error:  # the request's end cannot be found
                    status, payload, trace_id = 400, _bad_request(str(error)), None
                    close = True
                else:
                    if message is None:
                        break
                    self._answering.add(writer)
                    status, payload, trace_id = await self._handle_request(*message)
                    fields, headers, _ = message
                    # HTTP/1.1 keeps the connection unless asked to close;
                    # a malformed request line carries no version.
                    close = (
                        fields[2:] != ["HTTP/1.1"]
                        or "close" in headers.get("connection", "").lower()
                    )
                close = close or self._closing
                reason = _REASONS.get(status, "Internal Server Error")
                writer.write(encode_message(
                    f"HTTP/1.1 {status} {reason}", payload, trace_id, close=close,
                ))
                await writer.drain()
                self._answering.discard(writer)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # the client left, or stalled inside a request: no answer
        finally:
            self._answering.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            del self._connections[writer]

    async def _handle_request(
        self, fields: list[str], headers: dict[str, str], raw: bytes,
    ) -> tuple[int, dict | str, str | None]:
        try:
            if len(fields) < 2:
                return 400, _bad_request("malformed request line"), None
            method, (path, _, query) = fields[0], fields[1].partition("?")
            body = json.loads(raw) if raw else {}
            if not isinstance(body, dict):
                return 400, _bad_request("request body must be a JSON object"), None
            if query:
                # Query parameters fill body fields (body wins), so GET
                # routes take options: /metrics?format=json, /traces?limit=5.
                for key, value in parse_qsl(query):
                    body.setdefault(key, value)
        except (ValueError, UnicodeDecodeError) as error:
            return 400, _bad_request(f"bad request: {error}"), None
        try:
            return await self.service.handle(
                method, path, body,
                client_trace=headers.get("x-repro-trace"),
            )
        except Exception as error:  # noqa: BLE001 - served as a 500, not a crash
            return 500, {
                "kind": "error",
                "error": f"{type(error).__name__}: {error}",
                "code": "internal-error",
            }, None


# ----------------------------------------------------------------------
# runners: blocking and daemon-thread, over one serving coroutine
# ----------------------------------------------------------------------
async def _serve(build, started, until) -> None:
    """Build the parts — the last one a :class:`ServiceServer` — start
    them in order, pass the bound port to ``started`` and serve until
    ``until(server)`` returns.  Then, or when a part fails to start, stop
    every part in reverse order (a part that failed half-way, like a
    supervisor with some workers spawned, cleans up in its ``stop()``)."""
    parts = build()
    try:
        for part in parts:
            await part.start()
        started(parts[-1].port)
        await until(parts[-1])
    finally:
        for part in reversed(parts):
            await part.stop()


def serve_blocking(build, host: str, port: int, banner, announce=print) -> int:
    """Serve the parts ``build()`` returns until interrupted, announcing
    ``banner(bound_port)``: the blocking entry behind ``repro serve`` and
    ``repro cluster``."""
    try:
        asyncio.run(_serve(
            build, lambda bound: announce(banner(bound)),
            ServiceServer.serve_forever,
        ))
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: cannot bind {host}:{port}: {error}", file=sys.stderr)
        return 2
    return 0


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    data_dir: str | None = None,
    workers: int = 4,
    max_queue: int = 256,
    announce=print,
) -> int:
    """Blocking entry point behind ``repro serve``."""
    return serve_blocking(
        lambda: [ServiceServer(
            CountingService(data_dir=data_dir, workers=workers, max_queue=max_queue),
            host=host, port=port,
        )],
        host, port,
        lambda bound: f"repro service listening on http://{host}:{bound}"
        + (f" (persistent cache: {data_dir})" if data_dir else ""),
        announce,
    )


class ServingThread:
    """Serve on an asyncio loop in a daemon thread, so tests, benchmarks
    and demos drive a real server through the blocking
    :class:`~repro.service.client.ServiceClient`.  Context-manager
    friendly.  Subclasses build their parts in :meth:`_build`, the last
    one a :class:`ServiceServer`; ``port`` is its bound port once
    :meth:`start` returns."""

    _thread_name = "repro-service-server"
    _what = "service"
    _start_timeout = 30.0
    _stop_timeout = 30.0

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def _build(self) -> list:
        raise NotImplementedError

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=self._start_timeout)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise TimeoutError(
                f"{self._what} did not start within {self._start_timeout:g}s",
            )
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=self._stop_timeout)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await _serve(
            self._build, self._started, lambda _: self._stop_event.wait(),
        )

    def _started(self, port: int) -> None:
        self.port = port
        self._ready.set()


class BackgroundServer(ServingThread):
    """Run a :class:`CountingService` in a daemon thread — the e2e
    tests', demo's, and benchmarks' harness:

    >>> with BackgroundServer() as server:          # doctest: +SKIP
    ...     client = ServiceClient(port=server.port)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **service_kwargs) -> None:
        super().__init__(host, port)
        self.service: CountingService | None = None
        self._service_kwargs = service_kwargs

    def _build(self) -> list:
        self.service = CountingService(**self._service_kwargs)
        return [ServiceServer(self.service, host=self.host, port=self.port)]

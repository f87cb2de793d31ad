"""The cluster's front door: one asyncio router over N worker processes.

The router speaks the *exact* wire protocol of a single
:class:`~repro.service.server.CountingService`, so an unmodified
:class:`~repro.service.client.ServiceClient` (and ``repro client``,
``repro top``, ``repro health``) works against it.  Behind the socket it
splits traffic three ways:

* **counting routes** (``/task``, ``/count``, ``/count-answers``,
  ``/wl-dim``, ``/analyze``) are placed on one worker by rendezvous
  hashing of their task digest — ``stable_key_digest`` of the
  :func:`~repro.service.server.task_body`, so a verb and a ``/task``
  request with one body reach one worker's caches.  Each request is
  **forwarded once**, with one worker call outstanding at a time: the
  owner's scheduler coalesces identical requests under each dataset's
  version, so the router keeps no single-flight map of its own.  Only
  worker death triggers a **retry** (a connection failure resubmits to
  the next owner in the preference list — a kill never surfaces as a
  client error, because every worker replicates the dataset plane);
* **mutating routes** (``/register-dataset``, ``/target-update``,
  ``/subscribe``) are serialised through the
  :class:`~repro.cluster.state.ClusterState` log and fanned out to every
  replica; the response is the primary's, and replica version agreement
  is asserted after each commit;
* **observability routes** are aggregated (``/healthz``, ``/health``,
  ``/readyz``, ``/stats`` grow per-worker verdicts and a ``cluster``
  block) or delegated to the first live worker (``/slo``, ``/alerts``,
  ``/traces``, ``/profile``, ``/slow-queries``, ``/datasets``,
  ``/subscriptions``); ``/metrics`` serves the router process's own
  registry (``repro_router_*`` families).

Every call to a worker goes through :func:`http_call` on the router's
idle keep-alive connections to that worker, so a routed request sets up
no connection; demoting the worker, or stopping, closes them.

Health aggregation (the ``repro health`` contract): the router reports
*degraded* as soon as any worker is failing or unreachable, and *failing*
when a quorum (majority) of workers is lost.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs import (
    family_snapshot,
    get_logger,
    log_event,
    registry as metrics_registry,
    span,
)
from repro.service.server import (
    encode_message,
    metrics_response,
    read_message,
    task_body,
)
from repro.cluster.ring import HashRing
from repro.cluster.state import REPLICATED_ROUTES, ClusterState
from repro.utils import stable_key_digest

import logging

__all__ = ["ClusterRouter", "http_call"]

_log = get_logger("cluster.router")

#: Idempotent counting routes: hashed, forwarded once, retried on death.
HASHED_ROUTES = frozenset({
    "/task", "/count", "/count-answers", "/wl-dim", "/analyze",
})

#: Read-only routes answered by the first live worker.
DELEGATED_ROUTES = frozenset({
    "/datasets", "/subscriptions", "/slo", "/alerts", "/traces",
    "/profile", "/slow-queries",
})


async def http_call(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    timeout: float = 30.0,
    trace_id: str | None = None,
    pool: list | None = None,
) -> tuple[int, dict | str]:
    """One HTTP/1.1 request on a kept-alive connection to ``host:port``.

    ``pool`` holds the idle ``(reader, writer)`` connections to that
    endpoint: the call takes one, or opens a fresh one, and puts it back
    after a complete response that did not say ``Connection: close``; a
    failed or cancelled call closes it.  A reused connection the peer
    closed before answering is retried once on a fresh one, so only a
    fresh connection's failure reaches the caller.  Without a pool the
    call runs on an empty pool that is then discarded.  Returns
    ``(status, decoded payload)``; any transport failure raises
    ``OSError``/``IncompleteReadError``."""
    request = encode_message(
        f"{method} {path} HTTP/1.1", body, trace_id, host=f"{host}:{port}",
    )
    idle = [] if pool is None else pool

    async def exchange(reader, writer) -> tuple[int, dict | str]:
        try:
            writer.write(request)
            await writer.drain()
            message = await read_message(reader)
            if message is None:
                raise ConnectionResetError(
                    f"{host}:{port} closed the connection without answering",
                )
            fields, headers, raw = message
            if len(fields) < 2 or not fields[1].isdigit():
                raise ConnectionError(f"malformed status line {fields!r}")
        except BaseException:
            writer.close()
            raise
        if "close" in headers.get("connection", "").lower():
            writer.close()
        else:
            idle.append((reader, writer))
        status = int(fields[1])
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(raw) if raw else {}
        return status, raw.decode("utf-8", "replace")

    async def call() -> tuple[int, dict | str]:
        if idle:
            try:
                return await exchange(*idle.pop())
            except (ConnectionResetError, BrokenPipeError):
                pass  # closed while idle: the fresh connection decides
        return await exchange(*await asyncio.open_connection(host, port))

    try:
        return await asyncio.wait_for(call(), timeout=timeout)
    finally:
        if pool is None:
            _close_idle(idle)


def _close_idle(pool: list) -> None:
    """Close every idle connection in ``pool`` and empty it."""
    while pool:
        pool.pop()[1].close()


class ClusterRouter:
    """Route the service wire protocol across a set of worker endpoints.

    Workers join through :meth:`admit_worker` (which replays the
    replication log first, so a respawned process arrives at the
    committed dataset state before taking traffic) and leave through
    :meth:`demote_worker` — called on any transport failure of a fresh
    connection, because on loopback that means the process died; the
    supervisor confirms, respawns, and re-admits.
    """

    def __init__(self, request_timeout: float = 60.0) -> None:
        self.ring = HashRing()
        self.state = ClusterState()
        self.request_timeout = request_timeout
        #: Called with a demoted worker's id (the supervisor sets it).
        self.on_suspect = None
        #: worker id -> (host, port); only admitted (replayed) workers.
        self._workers: dict[str, tuple[str, int]] = {}
        #: (host, port) -> idle keep-alive connections to that worker,
        #: as many as its peak of concurrent calls.
        self._idle: dict[tuple[str, int], list] = {}
        self._membership = asyncio.Event()
        self._mutate_lock = asyncio.Lock()
        self.request_counts: dict[str, int] = {}
        registry = metrics_registry()
        self._requests_total = registry.counter(
            "repro_router_requests_total",
            "Requests handled by the cluster router, per route.",
            labelnames=("route",),
        )
        self._retries_total = registry.counter(
            "repro_router_retries_total",
            "Counting requests resubmitted after a worker became unreachable.",
        )
        self._replays_total = registry.counter(
            "repro_router_replays_total",
            "Replication-log entries replayed into (re)admitted workers.",
        )
        metrics_registry().register_collector(self._collect_metrics)

    def close(self) -> None:
        metrics_registry().unregister_collector(self._collect_metrics)

    # The transport's lifecycle hooks: the supervisor owns the workers.
    async def start(self) -> None:
        pass

    async def stop(self) -> None:
        for pool in self._idle.values():
            _close_idle(pool)
        self.close()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> list[str]:
        return sorted(self._workers)

    def endpoint(self, worker_id: str) -> tuple[str, int] | None:
        return self._workers.get(worker_id)

    async def admit_worker(
        self, worker_id: str, host: str, port: int, replay: bool = True,
    ) -> bool:
        """Replay the committed log into a worker, then put it in rotation.

        Admission runs under the mutation lock, so no fan-out can commit
        between the final replayed entry and ring membership — the worker
        joins at exactly the committed state.
        """
        async with self._mutate_lock:
            if replay:
                for entry in self.state.replay_entries():
                    try:
                        status, payload = await http_call(
                            host, port, "POST", entry.path, entry.body,
                            timeout=self.request_timeout,
                        )
                    except (OSError, asyncio.IncompleteReadError,
                            asyncio.TimeoutError, ValueError) as error:
                        log_event(
                            _log, logging.ERROR, "replay-failed",
                            worker=worker_id, path=entry.path,
                            sequence=entry.sequence, error=str(error),
                        )
                        return False
                    if status != 200:
                        log_event(
                            _log, logging.ERROR, "replay-rejected",
                            worker=worker_id, path=entry.path,
                            sequence=entry.sequence, status=status,
                            error=str(payload),
                        )
                        return False
                    self._replays_total.inc()
            self._workers[worker_id] = (host, port)
            self.ring.add(worker_id)
            self._membership.set()
            return True

    def demote_worker(self, worker_id: str, reason: str = "unreachable") -> None:
        """Drop a worker from rotation (idempotent).

        Any transport failure demotes: a worker that missed even one
        fan-out must not serve stale state, so re-entry always goes
        through a fresh process + :meth:`admit_worker` replay.
        """
        if worker_id not in self._workers:
            return
        endpoint = self._workers.pop(worker_id)
        self.ring.remove(worker_id)
        _close_idle(self._idle.get(endpoint, []))
        if not self._workers:
            self._membership.clear()
        log_event(
            _log, logging.WARNING, "worker-demoted",
            worker=worker_id, reason=reason,
        )
        if self.on_suspect is not None:
            self.on_suspect(worker_id)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(
        self, method: str, path: str, body: dict,
        client_trace: str | None = None,
    ) -> tuple[int, dict | str, str | None]:
        """The transport entry point — signature-compatible with
        :meth:`CountingService.handle`, so
        :class:`~repro.service.server.ServiceServer` serves the router
        as it serves a service.  Unknown paths count under one
        ``<unknown>`` label, as in the service."""
        route = (method.upper(), path.rstrip("/") or "/")
        name = route[1]
        sp = span("router.request", route=name, method=route[0])
        with sp:
            sp.adopt_trace(client_trace)
            try:
                status, payload = await self._dispatch(route, body, sp.trace_id)
            except Exception as error:  # noqa: BLE001 - a 503, not a crash
                status, payload = _unavailable(
                    f"cluster error: {type(error).__name__}: {error}",
                )
            sp.annotate(status=status)
        if isinstance(payload, dict) and payload.get("code") == "unknown-route":
            name = "<unknown>"
        self.request_counts[name] = self.request_counts.get(name, 0) + 1
        self._requests_total.labels(route=name).inc()
        if status >= 400 and isinstance(payload, dict) and sp.trace_id:
            payload = {**payload, "trace_id": sp.trace_id}
        return status, payload, sp.trace_id

    async def _dispatch(
        self, route: tuple[str, str], body: dict, trace_id: str | None,
    ) -> tuple[int, dict | str]:
        method, path = route
        if method == "POST" and path in HASHED_ROUTES:
            return await self._dispatch_hashed(path, body, trace_id)
        if method == "POST" and path in REPLICATED_ROUTES:
            return await self._dispatch_replicated(path, body, trace_id)
        if method == "GET" and path in ("/healthz", "/health"):
            return await self._aggregate_health(
                kind=path.lstrip("/"), liveness=path == "/healthz",
            )
        if method == "GET" and path == "/readyz":
            return await self._aggregate_readiness()
        if method == "GET" and path == "/stats":
            return await self._aggregate_stats()
        if method == "GET" and path == "/metrics":
            return metrics_response(body)
        if path in DELEGATED_ROUTES or (method, path) == ("POST", "/profile"):
            return await self._delegate(method, path, body, trace_id)
        return 404, {
            "kind": "error",
            "error": f"no route {method} {path}",
            "code": "unknown-route",
        }

    # ------------------------------------------------------------------
    # hashed counting routes
    # ------------------------------------------------------------------
    async def _dispatch_hashed(
        self, path: str, body: dict, trace_id: str | None,
    ) -> tuple[int, dict | str]:
        """Forward to the task digest's owner; on a transport failure,
        demote it and resubmit to the next owner, waiting out respawn
        windows until ``request_timeout``.

        One worker call is outstanding at a time: a count is an exact
        function of the task and the dataset version, so a second copy
        could only repeat the first.  Identical requests need no
        router-side single-flight either: the digest places them on one
        worker, whose scheduler coalesces them under a key that includes
        each dataset's version.  Counting routes are idempotent, so
        resubmitting after a SIGKILL — even one that landed mid-response
        — is always safe.
        """
        key = stable_key_digest(task_body(path, body))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.request_timeout
        resubmit = False
        while loop.time() < deadline:
            if not self._workers:
                # Ring empty mid-respawn: wait for a (re)admission.
                try:
                    await asyncio.wait_for(
                        self._membership.wait(), timeout=deadline - loop.time(),
                    )
                except asyncio.TimeoutError:
                    pass
                resubmit = False
                continue
            # A failed worker was demoted out of the ring, so the current
            # owner is the next one down ``ring.nodes_for(key)``.
            worker_id = self.ring.node_for(key)
            if resubmit:
                self._retries_total.inc()
            resubmit = True
            endpoint = self._workers[worker_id]
            try:
                return await http_call(
                    endpoint[0], endpoint[1], "POST", path, body,
                    timeout=max(0.05, deadline - loop.time()),
                    trace_id=trace_id,
                    pool=self._idle.setdefault(endpoint, []),
                )
            except asyncio.TimeoutError:
                # Slow, not dead (TimeoutError must precede its OSError
                # parent): membership stays, and the deadline is spent.
                break
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                self.demote_worker(worker_id, reason=str(error))
        return _unavailable("no cluster worker answered in time")

    # ------------------------------------------------------------------
    # replicated mutating routes
    # ------------------------------------------------------------------
    async def _dispatch_replicated(
        self, path: str, body: dict, trace_id: str | None,
    ) -> tuple[int, dict | str]:
        """Apply a mutation on a primary, commit it to the log, fan it
        out to every other replica — all under the mutation lock, so
        every worker sees the same ordered history."""
        body = self.state.prepare(path, body)
        async with self._mutate_lock:
            primary_status: int | None = None
            primary_payload: dict | str | None = None
            versions: dict[str, object] = {}
            for worker_id in list(self.worker_ids):
                endpoint = self._workers.get(worker_id)
                if endpoint is None:
                    continue
                try:
                    status, payload = await http_call(
                        endpoint[0], endpoint[1], "POST", path, body,
                        timeout=self.request_timeout, trace_id=trace_id,
                        pool=self._idle.setdefault(endpoint, []),
                    )
                except (OSError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError, ValueError) as error:
                    self.demote_worker(worker_id, reason=str(error))
                    continue
                if primary_status is None:
                    primary_status, primary_payload = status, payload
                    if status != 200:
                        # The primary rejected (bad spec, unknown name):
                        # every replica would agree — do not commit, do
                        # not fan out.
                        return status, payload
                versions[worker_id] = _payload_version(payload)
            if primary_status is None:
                return _unavailable("no live worker to apply the mutation")
            if len(set(map(str, versions.values()))) > 1:
                log_event(
                    _log, logging.ERROR, "replica-version-divergence",
                    path=path, versions={k: str(v) for k, v in versions.items()},
                )
            version = _payload_version(primary_payload)
            self.state.record(
                path, body,
                version=version if isinstance(version, int) else None,
            )
            return primary_status, primary_payload

    # ------------------------------------------------------------------
    # aggregation + delegation
    # ------------------------------------------------------------------
    async def _poll_workers(
        self, method: str, path: str,
    ) -> dict[str, tuple[int, dict | str] | None]:
        """One probe per admitted worker; ``None`` marks unreachable."""
        ids = self.worker_ids
        results = await asyncio.gather(*[
            http_call(
                *self._workers[wid], method, path, timeout=10.0,
                pool=self._idle.setdefault(self._workers[wid], []),
            )
            for wid in ids if wid in self._workers
        ], return_exceptions=True)
        verdicts: dict[str, tuple[int, dict | str] | None] = {}
        for wid, result in zip(ids, results):
            verdicts[wid] = None if isinstance(result, BaseException) else result
        return verdicts

    async def _aggregate_health(
        self, kind: str, liveness: bool,
    ) -> tuple[int, dict]:
        """Worker verdicts rolled up through the router.

        Degraded as soon as any worker is non-ok or unreachable; failing
        when a majority is failing/unreachable (quorum lost) or no
        workers are admitted at all.
        """
        verdicts = await self._poll_workers("GET", "/healthz")
        probes: dict[str, dict] = {}
        reasons: list[str] = []
        lost = 0
        for wid, verdict in sorted(verdicts.items()):
            if verdict is None:
                lost += 1
                probes[f"worker-{wid}"] = {
                    "status": "failing", "reason": "unreachable", "data": {},
                }
                reasons.append(f"worker-{wid}: unreachable")
                continue
            _, payload = verdict
            status = payload.get("status", "failing") if isinstance(payload, dict) else "failing"
            if status == "failing":
                lost += 1
            probes[f"worker-{wid}"] = {
                "status": status,
                "reason": "; ".join(payload.get("reasons", []))
                if isinstance(payload, dict) else "malformed verdict",
                "data": {"probes": len(payload.get("probes", {}))}
                if isinstance(payload, dict) else {},
            }
            if status != "ok":
                reasons.append(f"worker-{wid}: {status}")
        total = len(verdicts)
        if total == 0:
            overall = "failing"
            reasons.append("no workers admitted")
        elif lost * 2 > total:
            overall = "failing"
            reasons.append(f"quorum lost ({lost}/{total} workers down)")
        elif reasons:
            overall = "degraded"
        else:
            overall = "ok"
        probes["router-workers"] = {
            "status": overall if overall != "degraded" else "degraded",
            "reason": f"{total - lost}/{total} workers serving",
            "data": {"alive": total - lost, "admitted": total},
        }
        payload = {
            "kind": kind,
            "status": overall,
            "probes": probes,
            "reasons": reasons,
        }
        status_code = 503 if (liveness and overall == "failing") else 200
        return status_code, payload

    async def _aggregate_readiness(self) -> tuple[int, dict]:
        verdicts = await self._poll_workers("GET", "/readyz")
        probes: dict[str, dict] = {}
        ready = bool(verdicts)
        datasets = 0
        for wid, verdict in sorted(verdicts.items()):
            if verdict is None:
                probes[f"worker-{wid}"] = {
                    "status": "failing", "reason": "unreachable", "data": {},
                }
                ready = False
                continue
            status, payload = verdict
            worker_ready = status == 200
            ready = ready and worker_ready
            if isinstance(payload, dict):
                datasets = max(datasets, int(payload.get("datasets", 0) or 0))
            probes[f"worker-{wid}"] = {
                "status": "ok" if worker_ready else "failing",
                "reason": None if worker_ready else "not ready",
                "data": {},
            }
        payload = {
            "kind": "readyz",
            "status": "ok" if ready else "failing",
            "probes": probes,
            "reasons": [] if ready else ["not every worker is ready"],
            "ready": ready,
            "datasets": datasets,
        }
        return (200 if ready else 503), payload

    async def _aggregate_stats(self) -> tuple[int, dict]:
        verdicts = await self._poll_workers("GET", "/stats")
        worker_stats = {
            wid: payload
            for wid, verdict in verdicts.items()
            if verdict is not None
            for _, payload in [verdict]
            if isinstance(payload, dict)
        }
        merged_requests: dict[str, int] = dict(self.request_counts)
        engines = [s.get("engine", {}) for s in worker_stats.values()]
        schedulers = [s.get("scheduler", {}) for s in worker_stats.values()]
        first = next(iter(worker_stats.values()), {})
        cluster_workers = []
        for wid in sorted(verdicts):
            stats = worker_stats.get(wid)
            endpoint = self._workers.get(wid)
            entry: dict = {
                "id": wid,
                "port": endpoint[1] if endpoint else None,
                "reachable": stats is not None,
            }
            if stats is not None:
                entry["requests"] = sum(stats.get("requests", {}).values())
                scheduler = stats.get("scheduler", {})
                engine = stats.get("engine", {})
                entry["executed"] = scheduler.get("executed", 0)
                entry["coalesced"] = scheduler.get("coalesced", 0)
                entry["counts_executed"] = engine.get("counts_executed", 0)
                entry["plans_compiled"] = engine.get("plans_compiled", 0)
            cluster_workers.append(entry)
        payload = {
            "kind": "stats",
            "engine": _merge_numeric(engines),
            "scheduler": _merge_numeric(schedulers),
            "datasets": first.get("datasets", []),
            "dynamic": first.get("dynamic", {}),
            "persistent": first.get("persistent"),
            "requests": merged_requests,
            "metrics": metrics_registry().snapshot(),
            "cluster": {
                "workers": cluster_workers,
                "router": {
                    "admitted": len(self._workers),
                    "ring_nodes": sorted(self.ring.nodes),
                    "requests": dict(self.request_counts),
                    **self.state.summary(),
                },
            },
        }
        return 200, payload

    async def _delegate(
        self, method: str, path: str, body: dict, trace_id: str | None,
    ) -> tuple[int, dict | str]:
        """Answer a read-only route from the first live worker (the
        replicated planes agree, so any worker's view is the cluster's)."""
        for worker_id in self.worker_ids:
            endpoint = self._workers.get(worker_id)
            if endpoint is None:
                continue
            try:
                return await http_call(
                    endpoint[0], endpoint[1], method, path,
                    body or None, timeout=self.request_timeout,
                    trace_id=trace_id, pool=self._idle.setdefault(endpoint, []),
                )
            except (OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, ValueError) as error:
                self.demote_worker(worker_id, reason=str(error))
        return _unavailable("no live worker to delegate to")

    # ------------------------------------------------------------------
    # metrics export
    # ------------------------------------------------------------------
    def _collect_metrics(self) -> list[tuple[str, dict]]:
        return [
            family_snapshot(
                "repro_router_workers", "gauge",
                [({}, len(self._workers))],
                help="Workers currently admitted to the ring.",
            ),
            family_snapshot(
                "repro_router_log_entries", "gauge",
                [({}, len(self.state.entries))],
                help="Committed mutations in the replication log.",
            ),
        ]


def _unavailable(error: str) -> tuple[int, dict]:
    """The router's structured 503."""
    return 503, {"kind": "error", "error": error, "code": "cluster-unavailable"}


def _payload_version(payload) -> object:
    """The committed version a mutating response reports, if any."""
    if not isinstance(payload, dict):
        return None
    if isinstance(payload.get("version"), int):
        return payload["version"]
    dataset = payload.get("dataset")
    if isinstance(dataset, dict):
        return dataset.get("version")
    subscription = payload.get("subscription")
    if isinstance(subscription, dict):
        return subscription.get("version")
    return None


def _merge_numeric(snapshots: list[dict]) -> dict:
    """Sum counters across workers (ratios/rates are re-averaged)."""
    merged: dict[str, int | float] = {}
    counts: dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
            counts[key] = counts.get(key, 0) + 1
    for key in list(merged):
        if key.endswith(("_rate", "_ratio", "saturation")) and counts[key]:
            merged[key] = round(merged[key] / counts[key], 4)
    return merged


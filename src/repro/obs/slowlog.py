"""Slow-query log: a bounded ring of task executions over a threshold.

The trace rings (:func:`repro.obs.trace.slow_traces`) answer "show me
recent slow *span trees*"; the slow-query log answers the operator's
follow-up — *which task was that, what plan did it run, and where did
the time go?*  Every executor hands its finished :class:`Result` to
:func:`maybe_record`; entries over the threshold capture the canonical
task cache key, the plan/backend description, the full ``.explain()``
output, the :func:`~repro.obs.cost.cost_breakdown`, and the trace id —
enough to re-run, re-plan, or cross-reference the request in ``GET
/traces`` without having caught it live.

Served at ``GET /slow-queries`` and ``repro slowlog``.  The threshold is
the process's one notion of "slow" (``REPRO_SLOWLOG_MS`` env, default
100 ms, runtime-settable via :func:`set_slowlog_threshold_ms`): the
slow-trace ring of :mod:`repro.obs.trace` reads it too.  The hot-path
cost for fast tasks is one call and one float compare — the expensive
parts (cost walk, explain rendering) only run for tasks that were
already slow.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from time import time as _wall_clock

from repro.errors import ObservabilityError
from repro.obs import trace as _trace
from repro.obs.cost import cost_breakdown
from repro.obs.metrics import registry

__all__ = [
    "maybe_record",
    "slow_queries",
    "clear_slow_queries",
    "set_slowlog_threshold_ms",
    "slowlog_threshold_ms",
    "set_slowlog_limit",
    "slowlog_limit",
]

DEFAULT_SLOWLOG_MS = 100.0
DEFAULT_SLOWLOG_LIMIT = 64


def _checked_threshold(threshold) -> float:
    threshold = float(threshold)
    # ``not >=`` also rejects NaN, which compares false with everything:
    # a NaN threshold would capture every task and answer bare ``NaN``,
    # which is not JSON.
    if not threshold >= 0:
        raise ObservabilityError(
            f"slow-query threshold must be a number >= 0, got {threshold!r}",
        )
    return threshold


def _env_threshold() -> float:
    """``REPRO_SLOWLOG_MS`` through the setter's check; anything invalid
    (unparseable, negative, NaN) leaves the default."""
    raw = os.environ.get("REPRO_SLOWLOG_MS", "").strip()
    if not raw:
        return DEFAULT_SLOWLOG_MS
    try:
        return _checked_threshold(raw)
    except ValueError:
        return DEFAULT_SLOWLOG_MS


_threshold_ms = _env_threshold()
_trace._slow_threshold_s = _threshold_ms / 1000.0
_entries: deque = deque(maxlen=DEFAULT_SLOWLOG_LIMIT)
_config_lock = threading.Lock()
_seq = itertools.count(1)


def set_slowlog_threshold_ms(threshold: float) -> float:
    """Tasks and root spans at least this slow are logged (here and in
    the slow-trace ring); returns the previous value.

    ``float("inf")`` disables capture outright; a negative or NaN
    threshold raises :class:`~repro.errors.ObservabilityError`.
    """
    global _threshold_ms
    threshold = _checked_threshold(threshold)
    with _config_lock:
        previous = _threshold_ms
        _threshold_ms = threshold
        _trace._slow_threshold_s = threshold / 1000.0
    return previous


def slowlog_threshold_ms() -> float:
    return _threshold_ms


def set_slowlog_limit(limit: int) -> int:
    """Resize the ring (keeping the newest entries); returns the old size."""
    global _entries
    limit = int(limit)
    if limit < 1:
        raise ObservabilityError("slow-query log size must be >= 1")
    with _config_lock:
        previous = _entries.maxlen or DEFAULT_SLOWLOG_LIMIT
        _entries = deque(_entries, maxlen=limit)
    return previous


def slowlog_limit() -> int:
    return _entries.maxlen or DEFAULT_SLOWLOG_LIMIT


def maybe_record(task, result) -> dict | None:
    """Log ``result`` if it exceeded the threshold; returns the entry.

    ``task`` is the executed spec (for the canonical cache key) — may be
    ``None`` for callers that only hold the result.  Fast results return
    immediately after one float compare.
    """
    if result.elapsed_ms < _threshold_ms:
        return None
    trace = result.trace
    trace_id = None
    if trace is not None:
        trace_id = (
            trace.get("trace_id") if isinstance(trace, dict) else trace.trace_id
        )
    entry = {
        "seq": next(_seq),
        "time": round(_wall_clock(), 3),
        "task_key": task.cache_key() if task is not None else None,
        "kind": result.kind,
        "executor": result.executor,
        "backend": result.backend,
        "cached": result.cached,
        "version": result.version,
        "elapsed_ms": round(result.elapsed_ms, 3),
        "threshold_ms": _threshold_ms,
        "trace_id": trace_id,
        "cost": cost_breakdown(trace),
        "explain": result.explain(),
    }
    _entries.append(entry)
    registry().counter(
        "repro_slow_queries_total",
        help="Task executions slower than the slow-query threshold",
        labelnames=("kind", "executor"),
    ).labels(kind=result.kind, executor=result.executor).inc()
    return entry


def slow_queries(limit: int | None = None) -> list[dict]:
    """Logged slow queries, newest last (the ``GET /slow-queries`` body)."""
    entries = list(_entries)
    return entries if limit is None else entries[-limit:]


def clear_slow_queries() -> None:
    _entries.clear()

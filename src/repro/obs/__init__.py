"""``repro.obs`` — zero-dependency observability for the whole stack.

Three pieces, all stdlib-only:

* :mod:`repro.obs.metrics` — a process-global, thread-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms with labeled families, rendered as Prometheus text or JSON.
  Subsystems that already keep stats objects (``CacheStats``,
  ``SchedulerStats``, …) export them via scrape-time *collectors*, so
  the hot path pays nothing.
* :mod:`repro.obs.trace` — ``span("engine.compile", **attrs)`` context
  managers building per-request span trees, propagated across asyncio
  and worker-pool hops via ``contextvars``, with bounded ring buffers
  of recent and slow traces.
* :mod:`repro.obs.logging` — structured (key=value / JSON) stdlib
  logging with per-subsystem loggers and a ``REPRO_LOG`` env switch;
  log lines carry the current trace id.

Plus the performance-telemetry layer built on the span substrate:

* :mod:`repro.obs.profile` — a span-attributed sampling profiler
  (daemon thread over ``sys._current_frames()``), start/stoppable at
  runtime, emitting collapsed-stack / flame-graph output.
* :mod:`repro.obs.cost` — per-task cost breakdowns
  (compile/execute/encode/lookup) derived lazily from span trees and
  exported as the ``repro_task_phase_ms`` histogram family.
* :mod:`repro.obs.slowlog` — a bounded ring of task executions over a
  latency threshold, each entry carrying the canonical task key, plan,
  cost breakdown, and trace id.

And the judgement layer on top of all of it (PR 9):

* :mod:`repro.obs.health` — named probes (event-loop lag watchdog,
  GC-pause tracking, memory watermarks, plus service-registered
  scheduler/store/journal probes) aggregated into
  ``ok | degraded | failing`` liveness/readiness verdicts.
* :mod:`repro.obs.slo` — per-key rolling latency/error windows,
  ``REPRO_SLO="count:p99<250ms,err<0.1%"`` objective parsing, and
  error-budget burn-rate gauges.
* :mod:`repro.obs.alerts` — a declarative alert rule engine evaluated
  on scrape, with firing/resolved transitions as structured log events
  and the ``repro_alerts_firing`` gauge.
"""

from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    burn_rate_rule,
    probe_rule,
    threshold_rule,
)
from repro.obs.health import (
    EventLoopLagMonitor,
    GcPauseTracker,
    HealthRegistry,
    HealthReport,
    MemoryWatermarkProbe,
    ProbeResult,
    degraded,
    failing,
    ok,
    rss_bytes,
)
from repro.obs.slo import (
    Objective,
    RollingWindow,
    SloTracker,
    configure_slo,
    observe_slo,
    parse_slo,
    set_slo_tracking,
    slo_report,
    tracker,
)

from repro.obs.cost import (
    COST_PHASES,
    cost_breakdown,
    observe_task_cost,
    render_cost,
)
from repro.obs.logging import (
    configure_from_env,
    configure_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    family_snapshot,
    registry,
)
from repro.obs.profile import (
    SamplingProfiler,
    profile_snapshot,
    profiling_active,
    render_collapsed,
    start_profiling,
    stop_profiling,
)
from repro.obs.slowlog import (
    clear_slow_queries,
    maybe_record,
    set_slowlog_limit,
    set_slowlog_threshold_ms,
    slow_queries,
    slowlog_limit,
    slowlog_threshold_ms,
)
from repro.obs.trace import (
    Span,
    bind_current_context,
    child_span,
    clear_traces,
    current_span,
    current_trace_id,
    leaf_span,
    recent_traces,
    render_span,
    set_trace_sampling,
    set_tracing,
    slow_traces,
    span,
    span_to_dict,
    trace_sampling,
    tracing_enabled,
)

__all__ = [
    "AlertManager",
    "AlertRule",
    "COST_PHASES",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EventLoopLagMonitor",
    "GcPauseTracker",
    "HealthRegistry",
    "HealthReport",
    "MemoryWatermarkProbe",
    "MetricFamily",
    "MetricsRegistry",
    "Objective",
    "ProbeResult",
    "RollingWindow",
    "SamplingProfiler",
    "SloTracker",
    "Span",
    "burn_rate_rule",
    "probe_rule",
    "threshold_rule",
    "bind_current_context",
    "child_span",
    "clear_slow_queries",
    "clear_traces",
    "configure_from_env",
    "configure_logging",
    "configure_slo",
    "cost_breakdown",
    "current_span",
    "current_trace_id",
    "degraded",
    "failing",
    "family_snapshot",
    "get_logger",
    "leaf_span",
    "log_event",
    "maybe_record",
    "observe_slo",
    "observe_task_cost",
    "ok",
    "parse_slo",
    "profile_snapshot",
    "profiling_active",
    "recent_traces",
    "registry",
    "render_collapsed",
    "render_cost",
    "render_span",
    "rss_bytes",
    "set_slo_tracking",
    "set_slowlog_limit",
    "set_slowlog_threshold_ms",
    "set_trace_sampling",
    "set_tracing",
    "slo_report",
    "slow_queries",
    "slow_traces",
    "slowlog_limit",
    "slowlog_threshold_ms",
    "span",
    "span_to_dict",
    "start_profiling",
    "stop_profiling",
    "trace_sampling",
    "tracing_enabled",
    "tracker",
]

"""Workload and metric names, with units — the benchmark's public surface.

``BENCHMARK.json`` at the repository root lists the same names; the tests
check that the two agree and that every run emits exactly these.
"""

from __future__ import annotations

WORKLOADS = ("hot_counts", "compute_mix", "update_stream", "routed_counts")

#: Reported by untraced runs (``--trace 0``), in every workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "server_rss_mb": "MB",
}

#: Reported by traced runs (``--trace 1``), in every workload.
PER_LAYER = {
    # client-observed figures that not every workload supports
    "p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "error_rate": "ratio",
    "samples": "count",
    "trace.overhead_pct": "%",
    # service.server + service.client
    "server.request_ms": "ms",
    "server.transport_ms": "ms",
    "server.cpu_ms_per_op": "ms",
    "client.cpu_ms_per_op": "ms",
    # service.wire
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.result_us": "us",
    "wire.request_bytes": "bytes",
    # api
    "api.run_us": "us",
    "api.self_us": "us",
    # service.scheduler
    "scheduler.wait_ms": "ms",
    "scheduler.run_ms": "ms",
    "scheduler.executed": "count",
    "scheduler.coalesced": "count",
    "scheduler.queue_depth_max": "count",
    # engine.cache
    "engine.count_hit_rate": "ratio",
    "engine.plan_hit_rate": "ratio",
    "engine.lookup_us": "us",
    "engine.fingerprint_us": "us",
    "engine.count_entries": "count",
    # engine.plans + kernel
    "engine.compile_ms": "ms",
    "engine.execute_ms": "ms",
    "kernel.numpy_share": "ratio",
    "kernel.fallbacks": "count",
    # queries
    "queries.answer_ms": "ms",
    "queries.solve_ms": "ms",
    "queries.power_sums_per_answer": "count",
    # core
    "core.wl_dim_ms": "ms",
    # dynamic + service.registry
    "dynamic.update_ms": "ms",
    "dynamic.refreshes_delta": "count",
    "dynamic.refreshes_recompute": "count",
    # cluster
    "router.hop_ms": "ms",
    "router.retries": "count",
    "router.hedges": "count",
    "router.coalesced": "count",
    "cluster.worker_share_max": "ratio",
    "cluster.plans_compiled": "count",
}


def metric_payload(values: dict, names: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` for exactly ``names``.

    Raises ``KeyError`` when a metric was not measured, so a run never
    prints a partial result.
    """
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in names.items()
    }

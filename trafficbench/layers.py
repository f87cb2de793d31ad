"""Per-layer measurements for the traced run, all taken from outside.

Three sources, none of which changes the program:

* **scrapes** — the server's ``/stats`` and ``/metrics`` (every worker's,
  behind a router) and ``/proc/<pid>`` before and after the traced window;
* **in-process replays** — a fixed sample of the workload's ops run
  through each layer's public entry point (``task_to_wire``,
  ``Session.run``, ``HomEngine.count_detailed``, ``compile_plan``,
  ``CountPlan.execute``, ``count_answers_from_power_sums``,
  ``wl_dimension``, ``Session.update``) inside benchmark-side spans;
* **probes** — short, checked request bursts for the layers a workload
  does not cross itself: target updates (write latency, delta refreshes)
  on a probe dataset, and the router hop against a probe cluster (or,
  on ``routed_counts``, a probe direct server).
"""

from __future__ import annotations

import json
import random
import statistics

from repro.api.executors import LocalExecutor
from repro.api.session import Session
from repro.api.tasks import HomCountTask
from repro.engine import HomEngine, set_default_engine
from repro.engine.cache import target_key
from repro.engine.plans import compile_plan
from repro.service.client import ServiceClient
from repro.service.registry import DatasetRegistry
from repro.service.wire import (
    graph_from_spec,
    graph_to_spec,
    result_to_wire,
    task_from_wire,
    task_to_wire,
)

from trafficbench.loadgen import execute, run_one
from trafficbench.oracle import VersionOracle, check_records
from trafficbench.workloads import Inputs, generate, hot_patterns, update_batches

#: Routes whose server-side latency is the workload's, not the scrapes'.
COUNTING_ROUTES = (
    "/count", "/task", "/count-answers", "/wl-dim", "/analyze", "/target-update",
)


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


# ----------------------------------------------------------------------
# scrapes
# ----------------------------------------------------------------------
def _samples(metrics: dict, name: str) -> list:
    return metrics.get(name, {}).get("samples", [])


def _histogram(metrics: dict, name: str, routes=None) -> tuple[float, int]:
    total, count = 0.0, 0
    for sample in _samples(metrics, name):
        if routes is None or sample["labels"].get("route") in routes:
            total += sample["value"]["sum"]
            count += sample["value"]["count"]
    return total, count


def _counter(metrics: dict, name: str) -> float:
    return sum(sample["value"] for sample in _samples(metrics, name))


def worker_ports(topology) -> list[int]:
    if topology.kind == "serve":
        return [topology.port]
    stats = topology.client().stats()
    return [w["port"] for w in stats["cluster"]["workers"] if w.get("port")]


def scrape(topology, ports: list[int]) -> dict:
    """Counters of every serving process, summed (maxima for high-water
    marks), plus the router's own counters on a cluster."""
    out = {
        "request": [0.0, 0], "wait": [0.0, 0], "run": [0.0, 0],
        "executed": [], "coalesced": 0, "queue_depth_max": 0,
        "count_hits": 0, "count_requests": 0, "plan_hits": 0,
        "plan_requests": 0, "count_entries": 0, "plans_compiled": 0,
        "numpy": 0, "python": 0, "fallbacks": 0,
        "deltas": 0, "recomputes": 0,
        "retries": 0, "hedges": 0, "router_coalesced": 0,
        "cpu_s": topology.cpu_seconds(),
    }
    for port in ports:
        stats = ServiceClient(port=port).stats()
        metrics = stats["metrics"]
        for key, name, routes in (
            ("request", "repro_server_request_ms", COUNTING_ROUTES),
            ("wait", "repro_scheduler_wait_ms", None),
            ("run", "repro_scheduler_run_ms", None),
        ):
            total, count = _histogram(metrics, name, routes)
            out[key][0] += total
            out[key][1] += count
        scheduler, engine = stats["scheduler"], stats["engine"]
        out["executed"].append(scheduler["executed"])
        out["coalesced"] += scheduler["coalesced"]
        out["queue_depth_max"] = max(out["queue_depth_max"], scheduler["max_queue_depth"])
        for field in ("count_hits", "count_requests", "plan_hits", "plan_requests",
                      "plans_compiled"):
            out[field] += engine[field]
        out["count_entries"] += engine["counts_cached"]
        for sample in _samples(metrics, "repro_backend_selected_total"):
            backend = sample["labels"].get("backend")
            if backend in ("numpy", "python"):
                out[backend] += sample["value"]
        out["fallbacks"] += _counter(metrics, "repro_kernel_fallback_total")
        for dataset in stats["dynamic"].values():
            out["deltas"] += dataset["deltas_applied"]
            out["recomputes"] += dataset["delta_fallbacks"]
    if topology.kind == "cluster":
        router = topology.client().metrics()
        out["retries"] = _counter(router, "repro_router_retries_total")
        out["hedges"] = _counter(router, "repro_router_hedges_total")
        out["router_coalesced"] = _counter(router, "repro_router_coalesced_total")
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def scrape_metrics(before: dict, after: dict, ops: int, client_mean_ms: float,
                   client_cpu_s: float) -> dict:
    """Per-layer metrics from two scrapes around the traced window."""
    def delta(key):
        return after[key] - before[key]

    def mean(key):
        return _ratio(after[key][0] - before[key][0], after[key][1] - before[key][1])

    request_ms = mean("request")
    executed = [a - b for a, b in zip(after["executed"], before["executed"])]
    return {
        "server.request_ms": request_ms,
        "server.transport_ms": client_mean_ms - request_ms,
        "server.cpu_ms_per_op": 1000.0 * delta("cpu_s") / max(ops, 1),
        "client.cpu_ms_per_op": 1000.0 * client_cpu_s / max(ops, 1),
        "scheduler.wait_ms": mean("wait"),
        "scheduler.run_ms": mean("run"),
        "scheduler.executed": sum(executed),
        "scheduler.coalesced": delta("coalesced"),
        "scheduler.queue_depth_max": after["queue_depth_max"],
        "engine.count_hit_rate": _ratio(delta("count_hits"), delta("count_requests")),
        "engine.plan_hit_rate": _ratio(delta("plan_hits"), delta("plan_requests")),
        "engine.count_entries": after["count_entries"],
        "kernel.numpy_share": _ratio(after["numpy"], after["numpy"] + after["python"]),
        "kernel.fallbacks": after["fallbacks"],
        "dynamic.refreshes_delta": delta("deltas"),
        "dynamic.refreshes_recompute": delta("recomputes"),
    }


def cluster_metrics(before: dict, after: dict) -> dict:
    executed = [a - b for a, b in zip(after["executed"], before["executed"])]
    return {
        "router.retries": after["retries"] - before["retries"],
        "router.hedges": after["hedges"] - before["hedges"],
        "router.coalesced": after["router_coalesced"] - before["router_coalesced"],
        "cluster.worker_share_max": _ratio(max(executed, default=0), sum(executed)),
        "cluster.plans_compiled": after["plans_compiled"],
    }


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def load(client, inputs: Inputs) -> None:
    """Register datasets and subscriptions, then run the warm ops."""
    for name, graph in inputs.datasets.items():
        client.register_graph(name, graph)
    for name, pids in inputs.subscriptions.items():
        for pid in pids:
            client.subscribe(
                name, pattern=inputs.patterns[pid], subscription_id=f"{name}:{pid}",
            )
    for op in inputs.warm:
        execute(client, inputs, op)


def write_probe_inputs(seed: int, writes: int = 100) -> Inputs:
    graph = generate("update_stream", seed, "tiny").datasets["u0"]
    inputs = Inputs(workload="write-probe", seed=seed, scale="tiny")
    inputs.datasets = {"wprobe": graph}
    inputs.patterns = {"C4": hot_patterns()["C4"], "grid": hot_patterns()["grid"]}
    inputs.subscriptions = {"wprobe": ["C4", "grid"]}
    inputs.writes = update_batches(
        inputs.datasets, writes, random.Random(f"write-probe:{seed}"),
    )
    inputs.write_ops = [("write", i) for i in range(writes)]
    return inputs


def write_probe(topology, seed: int, writes: int = 100) -> tuple[list, dict, dict, Inputs]:
    """Sequential target updates on a subscribed probe dataset."""
    inputs = write_probe_inputs(seed, writes)
    client = topology.client()
    load(client, inputs)
    ports = worker_ports(topology)
    before = scrape(topology, ports)
    records = [run_one(client, inputs, op) for op in inputs.write_ops]
    after = scrape(topology, ports)
    return records, before, after, inputs


def router_probe_inputs(seed: int) -> Inputs:
    inputs = Inputs(workload="router-probe", seed=seed, scale="tiny")
    inputs.datasets = {"rprobe": generate("hot_counts", seed, "tiny").datasets["g0"]}
    patterns = hot_patterns()
    inputs.patterns = {
        pid: patterns[pid] for pid in ("C4", "C5", "P4", "P5", "grid", "claw")
    }
    inputs.warm = [("count", pid, "rprobe") for pid in sorted(inputs.patterns)]
    return inputs


def router_probe(direct, routed, seed: int, rounds: int = 300):
    """Warm counts sent alternately straight to a server and through a
    router; the hop is the difference of the two medians."""
    inputs = router_probe_inputs(seed)
    clients = [direct.client(), routed.client()]
    for client in clients:
        load(client, inputs)
    latencies: list[list[float]] = [[], []]
    records = []
    for i in range(rounds):
        op = inputs.warm[i % len(inputs.warm)]
        for side in ((0, 1) if i % 2 else (1, 0)):
            record = run_one(clients[side], inputs, op)
            latencies[side].append(record.ms)
            records.append(record)
    hop = statistics.median(latencies[1]) - statistics.median(latencies[0])
    return hop, records, inputs


# ----------------------------------------------------------------------
# in-process replays
# ----------------------------------------------------------------------
def _session(inputs: Inputs, names) -> tuple[Session, HomEngine, DatasetRegistry]:
    engine = HomEngine()
    registry = DatasetRegistry()
    for name in names:
        registry.register_graph(name, inputs.datasets[name].copy())
    return Session(executor=LocalExecutor(engine=engine, registry=registry)), engine, registry


def replay_layers(inputs: Inputs, seed: int, tracer, sample: int = 120) -> tuple[dict, list[str], dict]:
    """Time each layer's public entry points on the workload's own ops
    (and the shared query / update probes); returns metrics, failures,
    and per-plan-kind execute medians for the run's metadata."""
    failures: list[str] = []
    hom_ops = [op for op in inputs.ops if op[0] in ("count", "task", "read")][:sample]
    tasks = [HomCountTask(inputs.patterns[op[1]], inputs.target(op[2])) for op in hom_ops]
    names = sorted({op[2] for op in hom_ops if isinstance(op[2], str)})
    session, engine, _ = _session(inputs, names)

    # wire + api + engine lookup: warm Session.run on freshly decoded specs.
    lookup = engine.count_detailed
    timing = {"on": False}

    def traced_lookup(*args, **kwargs):
        if not timing["on"]:
            return lookup(*args, **kwargs)
        with tracer.span("engine.lookup"):
            return lookup(*args, **kwargs)

    engine.count_detailed = traced_lookup
    request_bytes = []
    for task in tasks:
        with tracer.span("wire.encode"):
            body = json.dumps(task_to_wire(task))
        request_bytes.append(len(body.encode("utf-8")))
        payload = json.loads(body)
        session.run(task_from_wire(payload))  # warm: compile + count
        with tracer.span("wire.decode"):
            fresh = task_from_wire(payload)
        timing["on"] = True
        with tracer.span("api.run"):
            result = session.run(fresh)
        timing["on"] = False
        with tracer.span("wire.result"):
            json.dumps(result_to_wire(result))
    del engine.count_detailed

    # engine key fingerprinting of targets as the server decodes them
    graphs = [task.target for task in tasks if not isinstance(task.target, str)]
    if not graphs:
        graphs = [inputs.datasets[name] for name in names]
    for graph in (graphs * 4)[:40]:
        fresh_graph = graph_from_spec(graph_to_spec(graph))
        with tracer.span("engine.fingerprint"):
            target_key(fresh_graph)

    # plan compile + execute, per plan kind
    pairs = []
    for op in hom_ops:
        if (op[1], op[2]) not in pairs:
            pairs.append((op[1], op[2]))
    for pid in sorted({pid for pid, _ in pairs})[:12]:
        with tracer.span("engine.compile"):
            compile_plan(inputs.patterns[pid])
    for pid, ref in pairs[:24]:
        plan = compile_plan(inputs.patterns[pid])
        graph = inputs.datasets[ref] if isinstance(ref, str) else inputs.target(ref)
        graph.to_indexed()
        with tracer.span("engine.execute", kind=plan.kind):
            plan.execute(graph)

    power_sums = _replay_queries(inputs, seed, tracer, failures)
    _replay_updates(inputs, seed, tracer, failures)

    api = tracer.durations_ms("api.run")
    metrics = {
        "wire.encode_us": _median(tracer.durations_ms("wire.encode"), 1000.0),
        "wire.decode_us": _median(tracer.durations_ms("wire.decode"), 1000.0),
        "wire.result_us": _median(tracer.durations_ms("wire.result"), 1000.0),
        "wire.request_bytes": statistics.mean(request_bytes),
        "api.run_us": _median(api, 1000.0),
        "api.self_us": _median(tracer.self_ms("api.run"), 1000.0),
        "engine.lookup_us": _median(tracer.durations_ms("engine.lookup"), 1000.0),
        "engine.fingerprint_us": _median(tracer.durations_ms("engine.fingerprint"), 1000.0),
        "engine.compile_ms": _median(tracer.durations_ms("engine.compile")),
        "engine.execute_ms": _median(tracer.durations_ms("engine.execute")),
        "queries.answer_ms": _median(tracer.durations_ms("queries.answer")),
        "queries.solve_ms": _median(tracer.durations_ms("queries.solve")),
        "queries.power_sums_per_answer": statistics.mean(power_sums),
        "core.wl_dim_ms": _median(tracer.durations_ms("core.wl_dim")),
        "dynamic.update_ms": _median(tracer.durations_ms("dynamic.update")),
    }
    by_kind: dict[str, list] = {}
    for span in tracer.spans:
        if span["name"] == "engine.execute":
            by_kind.setdefault(span["kind"], []).append((span["end"] - span["start"]) * 1000.0)
    details = {
        "execute_ms_by_kind": {kind: _median(v) for kind, v in sorted(by_kind.items())},
        "analyse_ms": _median(tracer.durations_ms("core.analyse")),
    }
    return metrics, failures, details


def _replay_queries(inputs: Inputs, seed: int, tracer, failures: list) -> list[int]:
    """Cold answer counts, then the solver alone over recorded power sums."""
    from repro.core.wl_dimension import analyse_query, wl_dimension
    from repro.queries.answers import (
        count_answers_by_interpolation,
        count_answers_from_power_sums,
        hom_count_of_ell_copy,
    )
    from repro.queries.parser import parse_query

    probe = inputs if inputs.workload == "compute_mix" else generate("compute_mix", seed, "tiny")
    power_sums = []
    for qid, name in sorted(probe.answers)[:6]:
        query = parse_query(probe.queries[qid])
        graph = probe.datasets[name]
        previous = set_default_engine(HomEngine())
        try:
            with tracer.span("queries.answer", query=qid):
                value = count_answers_by_interpolation(query, graph)
            sums: dict[int, int] = {}

            def fetch(ell: int) -> int:
                sums[ell] = hom_count_of_ell_copy(query, graph, ell)
                return sums[ell]

            count_answers_from_power_sums(fetch)
            with tracer.span("queries.solve", query=qid):
                solved = count_answers_from_power_sums(sums.__getitem__)
        finally:
            set_default_engine(previous)
        power_sums.append(len(sums))
        expected = probe.answers[(qid, name)]
        if not value == solved == expected:
            failures.append(f"replay answers {qid} on {name}: {value}/{solved} != {expected}")
    for qid in sorted(probe.queries):
        query = parse_query(probe.queries[qid])
        with tracer.span("core.wl_dim", query=qid):
            wl_dimension(query)
        with tracer.span("core.analyse", query=qid):
            analyse_query(query)
    return power_sums


def _replay_updates(inputs: Inputs, seed: int, tracer, failures: list, count: int = 30) -> None:
    """``Session.update`` with maintained C4 and 2×3-grid counts attached,
    reading the refreshed values as the server's reply does."""
    from repro.dynamic.maintained import MaintainedCount

    probe = inputs if inputs.workload == "update_stream" else generate("update_stream", seed, "tiny")
    name = sorted(probe.datasets)[0]
    batches = [w for w in probe.writes if w[0] == name][:count]
    session, engine, registry = _session(probe, [name])
    dataset = registry.get(name)
    handles = {
        pid: MaintainedCount(probe.patterns[pid], dataset.dynamic, engine=engine)
        for pid in ("C4", "grid")
    }
    for pid, handle in handles.items():
        dataset.subscriptions[f"{name}:{pid}"] = handle
    for _, adds, removes in batches:
        with tracer.span("dynamic.update"):
            session.update(name, add_edges=adds, remove_edges=removes)
            values = {pid: handle.summary()["value"] for pid, handle in handles.items()}
    versions = VersionOracle(probe.datasets[name], [(a, r) for _, a, r in batches])
    for pid, value in values.items():
        expected = versions.count(pid, len(batches))
        if value != expected:
            failures.append(f"replay update {pid} on {name}: {value} != {expected}")


def probe_failures(records, inputs) -> list[str]:
    return [f"{inputs.workload}: {line}" for line in check_records(inputs, records)]

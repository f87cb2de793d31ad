"""Run one workload of the serving benchmark and print its result line.

    python3 trafficbench/run.py --workload hot_counts --seed 1 --seconds 10 --trace 0

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics (see ``README.md``).  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the run's metadata (effective cores, sample
counts, unsupported percentiles, failures).  Every spawned process is
stopped on every exit path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    # Measure the checkout's own source, never some other installed copy.
    sys.exit(f"no program to measure: {SRC}/repro is missing")
sys.path[:0] = [SRC, ROOT]

import repro  # noqa: E402

from trafficbench.calibrate import cpu_steal_seconds, effective_cores  # noqa: E402
from trafficbench.layers import (  # noqa: E402
    cluster_metrics,
    load,
    probe_failures,
    replay_layers,
    router_probe,
    scrape,
    scrape_metrics,
    worker_ports,
    write_probe,
)
from trafficbench.loadgen import OpStream, closed_loop  # noqa: E402
from trafficbench.oracle import check_records  # noqa: E402
from trafficbench.spec import END_TO_END, PER_LAYER, WORKLOADS, metric_payload  # noqa: E402
from trafficbench.stats import percentile, supported_percentile  # noqa: E402
from trafficbench.topology import ProcessTracker, marked_processes  # noqa: E402
from trafficbench.tracing import Tracer  # noqa: E402
from trafficbench.workloads import SCALES, cold_repeats, generate  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: Hard wall-clock budget for one run, below the 180 s a run may take.
RUN_BUDGET_S = 170
#: Topologies set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: On a shared host the hypervisor's CPU steal, not the code, is what
#: moves numbers between runs.  An untraced window that lost more than
#: this many CPU-seconds per second to steal (5% of two CPUs) is run
#: again, up to ``WINDOWS_MAX`` windows, and the least-stolen one counts.
#: Every window starts at the first op of its lists, so each re-run
#: measures the same traffic.
STEAL_LIMIT = 0.1
WINDOWS_MAX = 2


class _Interrupted(Exception):
    pass


def _raise_interrupted(signum, frame):
    raise _Interrupted(f"signal {signum}")


def _tail(values: list[float], q: float, unsupported: list[str], name: str) -> float:
    """The supported percentile, or the sample maximum (an upper bound)
    when fewer than ten samples lie beyond it — flagged in the metadata."""
    value = supported_percentile(values, q)
    if value is None:
        unsupported.append(name)
        return max(values)
    return value


def _streams(inputs, ops: list) -> list[OpStream]:
    """update_stream: one writer, one reader; otherwise one shared list."""
    if inputs.write_ops:
        return [OpStream(inputs.write_ops, cycle=False), OpStream(ops)]
    shared = OpStream(ops, cycle=not inputs.pass_len)
    return [shared, shared]


def _finite(inputs) -> bool:
    """Does the traffic change server state or run out (update_stream's
    writes, compute_mix's cold keys)?  Then each window needs a fresh
    server: continuing on the old one would measure a different regime."""
    return bool(inputs.write_ops or inputs.pass_len)


def _set_up(tracker: ProcessTracker, kind: str, inputs):
    """Spawn a topology and load it; returns it and the seconds taken."""
    start = time.perf_counter()
    topology = tracker.start(kind)
    load(topology.client(), inputs)
    return topology, time.perf_counter() - start


def _fresh(tracker: ProcessTracker, topology, inputs):
    """Replace ``topology`` with a freshly set-up one of the same kind."""
    topology.stop()
    return _set_up(tracker, topology.kind, inputs)[0]


def _window(topology, inputs, seconds: float, ops=None, tracer=None, tags=None):
    """One timed window from the first of ``ops`` (default: the whole
    list) on two clients of ``topology``.  compute_mix lists are never
    wrapped, so no cold key may repeat."""
    ops = inputs.ops if ops is None else ops
    clients = [topology.client(), topology.client()]
    records, window = closed_loop(
        clients, _streams(inputs, ops), inputs, seconds, tracer, tags,
    )
    if inputs.pass_len and cold_repeats(record.op for record in records):
        raise RuntimeError("a cold DP count repeated a key")
    return records, window


def _passes(tracker: ProcessTracker, topology, inputs, seconds: float, meta: dict):
    """compute_mix: whole passes in list order, each on a fresh server
    (``topology`` first), until ``seconds`` of passes are timed.  Returns
    the records, the timed seconds, the median peak RSS of the passes and
    the last topology."""
    records, elapsed, peaks = [], 0.0, []
    size = inputs.pass_len
    while True:
        start = size * (len(peaks) % (len(inputs.ops) // size))
        done, window = _window(topology, inputs, math.inf, inputs.ops[start:start + size])
        if len(done) != size:
            raise RuntimeError("a pass did not run its whole op list")
        records += done
        elapsed += window
        peaks.append(topology.peak_rss_mb())
        if elapsed >= seconds:
            meta.setdefault("passes", []).append(len(peaks))
            return records, elapsed, statistics.median(peaks), topology
        topology = _fresh(tracker, topology, inputs)


def _ops_per_second(records) -> list[int]:
    """Ops completed in each whole second of the window (load steadiness)."""
    if not records:
        return []
    start = records[0].start
    counts: list[int] = []
    for record in records:
        second = int(record.end - start)
        counts.extend([0] * (second + 1 - len(counts)))
        counts[second] += 1
    return counts[:-1] if len(counts) > 1 else counts


def _p50_by_kind(records) -> dict:
    """``{op kind: [p50 ms, ops]}``."""
    groups: dict[str, list[float]] = {}
    for record in records:
        groups.setdefault(record.op[0], []).append(record.ms)
    return {
        kind: [round(percentile(values, 50), 3), len(values)]
        for kind, values in sorted(groups.items())
    }


def _throughput(records, window: float) -> float:
    if not records or window <= 0:
        raise RuntimeError("no op completed in the timed window")
    return len(records) / window


def run(args, tracker: ProcessTracker) -> tuple[dict, dict]:
    meta: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "cpu_count": os.cpu_count(), "effective_cores": effective_cores(),
    }
    inputs = generate(args.workload, args.seed, args.scale)
    full = args.scale == "full"
    rounds = 300 if full else 40  # router-probe requests per side
    kind = "cluster" if args.workload == "routed_counts" else "serve"
    repeats = SETUP_REPEATS if full else 1
    setups = []
    for attempt in range(repeats):
        if attempt:
            topology.stop()
        topology, seconds = _set_up(tracker, kind, inputs)
        setups.append(seconds)
    meta["setup_runs_s"] = setups
    unsupported: list[str] = []

    if not args.trace:
        windows = []
        for attempt in range(WINDOWS_MAX):
            if attempt and _finite(inputs):
                topology = _fresh(tracker, topology, inputs)
            steal_before = cpu_steal_seconds()
            if inputs.pass_len:
                records, window, rss, topology = _passes(
                    tracker, topology, inputs, args.seconds, meta,
                )
            else:
                records, window = _window(topology, inputs, args.seconds)
                rss = topology.peak_rss_mb()
            steal = cpu_steal_seconds() - steal_before
            windows.append((steal, records, window, rss))
            if steal <= STEAL_LIMIT * window:
                break
        meta["steal_s"] = [round(w[0], 3) for w in windows]
        failures = check_records(inputs, [r for w in windows for r in w[1]])
        attempted = sum(len(w[1]) for w in windows)
        _, records, window, rss = min(windows, key=lambda w: w[0])
        latencies = [record.ms for record in records]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_rps": _throughput(records, window),
            "p50_ms": percentile(latencies, 50),
            "p90_ms": _tail(latencies, 90, unsupported, "p90_ms"),
            "server_rss_mb": rss,
        }
        metrics = metric_payload(values, END_TO_END)
    else:
        tracer = Tracer()
        half = args.seconds / 2.0
        untraced, untraced_window = _window(topology, inputs, half)
        if _finite(inputs):
            topology = _fresh(tracker, topology, inputs)
        ports = worker_ports(topology)
        before = scrape(topology, ports)
        cpu_before = os.times()
        traced, traced_window = _window(
            topology, inputs, half, tracer=tracer,
            tags={"workload": args.workload, "seed": args.seed},
        )
        cpu_after = os.times()
        after = scrape(topology, ports)
        records = untraced + traced
        failures = check_records(inputs, records)
        client_cpu = (cpu_after.user - cpu_before.user) + (
            cpu_after.system - cpu_before.system
        )
        traced_mean = statistics.mean(record.ms for record in traced)
        values = scrape_metrics(before, after, len(traced), traced_mean, client_cpu)
        probe_ops = 0

        if inputs.write_ops:
            writes = [record for record in records if record.op[0] == "write"]
        else:
            writes, probe_before, probe_after, probe_inputs = write_probe(
                topology, args.seed, writes=100 if full else 20,
            )
            failures += probe_failures(writes, probe_inputs)
            probe_ops += len(writes)
            values["dynamic.refreshes_delta"] = probe_after["deltas"] - probe_before["deltas"]
            values["dynamic.refreshes_recompute"] = (
                probe_after["recomputes"] - probe_before["recomputes"]
            )
        write_ms = [record.ms for record in writes]
        values["write_p50_ms"] = percentile(write_ms, 50)
        values["write_p90_ms"] = _tail(write_ms, 90, unsupported, "write_p90_ms")

        if kind == "cluster":
            values.update(cluster_metrics(before, after))
            direct = tracker.start("serve")
            hop, probe_records, probe_inputs = router_probe(
                direct, topology, args.seed, rounds=rounds,
            )
            direct.stop()
        else:
            cluster = tracker.start("cluster")
            cluster_ports = worker_ports(cluster)
            cluster_before = scrape(cluster, cluster_ports)
            hop, probe_records, probe_inputs = router_probe(
                topology, cluster, args.seed, rounds=rounds,
            )
            values.update(cluster_metrics(cluster_before, scrape(cluster, cluster_ports)))
            cluster.stop()
        values["router.hop_ms"] = hop
        failures += probe_failures(probe_records, probe_inputs)
        probe_ops += len(probe_records)

        replayed, replay_failures, details = replay_layers(inputs, args.seed, tracer)
        values.update(replayed)
        failures += replay_failures
        meta.update(details)

        latencies = [record.ms for record in records]
        attempted = len(records) + probe_ops
        values["p99_ms"] = _tail(latencies, 99, unsupported, "p99_ms")
        values["samples"] = len(latencies)
        values["error_rate"] = len(failures) / attempted
        values["trace.overhead_pct"] = 100.0 * (
            _throughput(untraced, untraced_window) / _throughput(traced, traced_window) - 1.0
        )
        meta["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-trace.spans.jsonl"))
        metrics = metric_payload(values, PER_LAYER)

    meta["samples"] = len(records)
    meta["ops_per_second"] = _ops_per_second(records)
    meta["p50_ms_by_kind"] = _p50_by_kind(records)
    meta["unsupported_percentiles"] = unsupported
    meta["failures"] = failures[:10]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'tiny' shrinks every input (smoke tests)")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # Spawned processes carry this run's pid, so a caller holding the
    # run's Popen can look for leftovers too.
    tracker = ProcessTracker(workdir, str(os.getpid()))
    signal.signal(signal.SIGTERM, _raise_interrupted)
    signal.signal(signal.SIGALRM, _raise_interrupted)
    signal.alarm(RUN_BUDGET_S)
    try:
        meta, result = run(args, tracker)
    finally:
        signal.alarm(0)
        tracker.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    leftover = marked_processes(tracker.marker)
    if leftover:
        print(f"processes left behind: {leftover}", file=sys.stderr)
        return 1
    meta["repro_version"] = getattr(repro, "__version__", None)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as out:
        json.dump({"meta": meta, "result": result}, out, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

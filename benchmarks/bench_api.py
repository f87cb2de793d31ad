"""Benchmark — task-API dispatch overhead over direct engine calls.

The one-API layer (`Session.run(HomCountTask(...))`) wraps every count in
spec resolution, provenance, and a `Result`.  That convenience must stay
effectively free: on a warm-cache batch workload (every count answered
from the engine's count cache — the steady state of repeated profiling
and serving traffic), Session dispatch must cost **< 5%** over calling
``HomEngine.count`` directly.

Each task memoises its inline target's fingerprint on the task instance,
so the task path actually skips the per-call O(n + m) target keying the
direct path pays — the gate holds with margin, and the table shows both
sides.

``python benchmarks/bench_api.py`` asserts the gate.
"""

from __future__ import annotations

import time

import pytest

from _tables import print_table
from repro.api import HomCountTask, Session
from repro.api.executors import LocalExecutor
from repro.engine import HomEngine
from repro.graphs import random_graph
from repro.wl.hom_indistinguishability import bounded_treewidth_patterns

GATE = 1.05  # session time must stay under 105% of direct engine time
PASSES = 7   # best-of to shave scheduler noise


def workload():
    patterns = bounded_treewidth_patterns(2, 5)
    targets = [random_graph(40, 0.12, seed=700 + i) for i in range(12)]
    return patterns, targets


def time_best(fn, passes: int = PASSES) -> float:
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_experiment() -> float:
    patterns, targets = workload()
    engine = HomEngine()
    session = Session(executor=LocalExecutor(engine=engine))
    tasks = [
        HomCountTask(pattern, target)
        for pattern in patterns
        for target in targets
    ]

    # Warm everything: plans compiled, every count cached, every task's
    # target fingerprint memoised on the task.
    direct_values = [
        engine.count(pattern, target)
        for pattern in patterns
        for target in targets
    ]
    session_values = [session.run(task).value for task in tasks]
    assert session_values == direct_values

    def direct_pass():
        for pattern in patterns:
            for target in targets:
                engine.count(pattern, target)

    def session_pass():
        for task in tasks:
            session.run(task)

    direct = time_best(direct_pass)
    through_session = time_best(session_pass)
    overhead = through_session / direct - 1.0

    calls = len(tasks)
    print_table(
        "Task-API dispatch vs direct HomEngine calls — warm count cache",
        ["workload", "direct", "session", "per call", "overhead"],
        [
            [
                f"{len(patterns)} patterns x {len(targets)} targets G(40, .12)",
                f"{direct * 1000:.2f} ms",
                f"{through_session * 1000:.2f} ms",
                f"{through_session / calls * 1e6:.1f} us",
                f"{overhead * 100:+.1f}%",
            ],
        ],
    )
    print(
        f"\nsession/direct ratio: {through_session / direct:.3f} "
        f"(gate: < {GATE:.2f})",
    )
    assert through_session < direct * GATE, (
        f"Session dispatch overhead {overhead * 100:.1f}% exceeds the "
        f"{(GATE - 1) * 100:.0f}% gate"
    )
    return through_session / direct


def test_bench_direct_engine(benchmark):
    patterns, targets = workload()
    engine = HomEngine()
    engine.count_batch(patterns, targets)  # warm

    def direct_pass():
        return [
            engine.count(pattern, target)
            for pattern in patterns
            for target in targets
        ]

    result = benchmark(direct_pass)
    assert all(value >= 0 for value in result)


def test_bench_session_dispatch(benchmark):
    patterns, targets = workload()
    engine = HomEngine()
    session = Session(executor=LocalExecutor(engine=engine))
    tasks = [
        HomCountTask(pattern, target)
        for pattern in patterns
        for target in targets
    ]
    for task in tasks:  # warm
        session.run(task)

    def session_pass():
        return [session.run(task).value for task in tasks]

    result = benchmark(session_pass)
    assert all(value >= 0 for value in result)


if __name__ == "__main__":
    from _harness import main_record

    main_record("bench_api", run_experiment, params={"gate": 1.05}, primary="session_vs_direct_ratio", higher_is_better=False)

"""Hammer one engine from many threads; counts must match the oracle and
the cache statistics must stay arithmetically consistent."""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import HomCountTask
from repro.engine import HomEngine
from repro.graphs import cycle_graph, path_graph, random_graph, star_graph
from repro.homs.brute_force import count_homomorphisms_brute
from repro.service.server import CountingService
from repro.service.wire import task_to_wire


def _workload():
    patterns = [path_graph(3), path_graph(4), cycle_graph(4), star_graph(3)]
    targets = [random_graph(8, 0.4, seed=70 + i) for i in range(6)]
    pairs = [(p, t) for p in patterns for t in targets]
    oracle = {
        index: count_homomorphisms_brute(pattern, target)
        for index, (pattern, target) in enumerate(pairs)
    }
    return pairs, oracle


class TestThreadSafety:
    def test_concurrent_counts_match_oracle(self):
        pairs, oracle = _workload()
        engine = HomEngine()
        jobs = list(range(len(pairs))) * 8  # every pair, from many threads
        rng = random.Random(5)
        rng.shuffle(jobs)
        results: dict[int, set] = {index: set() for index in oracle}
        barrier = threading.Barrier(8)

        def run(chunk) -> None:
            barrier.wait()  # maximise contention on the cold caches
            for index in chunk:
                pattern, target = pairs[index]
                results[index].add(engine.count(pattern, target))

        chunks = [jobs[i::8] for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(run, chunks))

        for index, values in results.items():
            assert values == {oracle[index]}, f"pair {index} diverged: {values}"

    def test_stats_consistent_under_contention(self):
        pairs, oracle = _workload()
        engine = HomEngine()
        total_calls = len(pairs) * 8

        def run(index) -> int:
            pattern, target = pairs[index % len(pairs)]
            return engine.count(pattern, target)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(run, range(total_calls)))

        stats = engine.stats_summary()
        # Every call probes the count cache exactly once.
        assert stats["count_requests"] == total_calls
        assert stats["count_hits"] + stats["count_misses"] == total_calls
        # Plan probes happen only on count-cache misses.
        assert stats["plan_requests"] == stats["count_misses"]
        # Racing threads may compile a plan twice, but never more than one
        # compilation per plan-cache miss, and at least one per pattern.
        assert 4 <= stats["plans_compiled"] <= stats["plan_misses"]
        assert stats["counts_executed"] == stats["count_misses"]

    def test_concurrent_restricted_and_batch_calls(self):
        engine = HomEngine()
        pattern = path_graph(3)
        targets = [random_graph(7, 0.5, seed=90 + i) for i in range(4)]
        allowed = {
            v: frozenset(range(0, 7, 2)) for v in pattern.vertices()
        }
        expected_plain = [
            count_homomorphisms_brute(pattern, t) for t in targets
        ]
        expected_restricted = [
            count_homomorphisms_brute(pattern, t, allowed=allowed)
            for t in targets
        ]

        def plain() -> list[int]:
            (row,) = engine.count_batch([pattern], targets)
            return row

        def restricted() -> list[int]:
            return [
                engine.count(pattern, t, allowed=allowed) for t in targets
            ]

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(plain) if i % 2 == 0 else pool.submit(restricted)
                for i in range(12)
            ]
            for i, future in enumerate(futures):
                expected = expected_plain if i % 2 == 0 else expected_restricted
                assert future.result() == expected

    def test_loop_probes_race_the_worker_pool(self):
        """Warm hits answered on the event loop interleave with cold
        counts that eight worker threads are writing into the same
        caches; a thread switch every microsecond widens every window."""
        patterns = [path_graph(3), path_graph(4), cycle_graph(4), star_graph(3)]
        datasets = {f"d{i}": random_graph(8, 0.4, seed=40 + i) for i in range(3)}
        rng = random.Random(11)

        async def main(service):
            known, answered = [], []  # (pattern, target) sent; + reply value
            seed = 0
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                wave = rng.sample(known, min(len(known), 16))  # warm repeats
                for pattern in patterns:  # cold: a target no request named yet
                    wave.append((pattern, random_graph(8, 0.4, seed=1000 + seed)))
                    wave.append((pattern, rng.choice(sorted(datasets))))
                    seed += 1
                rng.shuffle(wave)  # probes run while earlier jobs compute
                replies = await asyncio.wait_for(asyncio.gather(*(
                    service.handle(
                        "POST", "/task", task_to_wire(HomCountTask(pattern, target)),
                    )
                    for pattern, target in wave
                )), 60)
                for (pattern, target), (status, reply, _) in zip(wave, replies):
                    assert status == 200, reply
                    answered.append((pattern, target, reply["value"]))
                known += wave
            return answered, service.scheduler.stats.snapshot()

        async def runner():
            service = CountingService(workers=8, install_default_engine=False)
            for name, graph in datasets.items():
                service.registry.register_graph(name, graph)
            await service.scheduler.start()
            try:
                return await main(service)
            finally:
                await service.scheduler.stop()
                service.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            answered, stats = asyncio.run(runner())
        finally:
            sys.setswitchinterval(interval)

        oracle: dict = {}
        for pattern, target, value in answered:
            graph = datasets[target] if isinstance(target, str) else target
            key = (id(pattern), id(graph))
            if key not in oracle:
                oracle[key] = count_homomorphisms_brute(pattern, graph)
            assert value == oracle[key]
        assert stats["executed"] > 0 and stats["cached"] > 0
        assert stats["submitted"] == len(answered)
        assert stats["submitted"] == (
            stats["executed"] + stats["coalesced"] + stats["cached"] + stats["failed"]
        )

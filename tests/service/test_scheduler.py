"""Scheduler semantics: coalescing, bounded queue, error propagation,
crashing jobs and cancellation."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.scheduler import RequestScheduler


def run(coroutine):
    return asyncio.run(coroutine)


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self):
        async def scenario():
            scheduler = RequestScheduler(workers=2, max_queue=16)
            await scheduler.start()
            calls = []
            release = threading.Event()

            def slow_job():
                calls.append(1)
                release.wait(timeout=5.0)
                return 42

            tasks = [
                asyncio.create_task(scheduler.submit("hot-key", slow_job))
                for _ in range(10)
            ]
            # wait for every duplicate to reach the scheduler (condition
            # poll, not a timing assumption)
            deadline = time.monotonic() + 5.0
            while (
                scheduler.stats.coalesced < 9
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.001)
            release.set()
            results = await asyncio.gather(*tasks)
            stats = scheduler.stats
            await scheduler.stop()
            return results, len(calls), stats

        results, executions, stats = run(scenario())
        assert results == [42] * 10
        assert executions == 1
        assert stats.submitted == 10
        assert stats.coalesced == 9
        assert stats.executed == 1

    def test_distinct_keys_all_execute(self):
        async def scenario():
            scheduler = RequestScheduler(workers=3, max_queue=16)
            await scheduler.start()
            results = await asyncio.gather(*[
                scheduler.submit(("key", i), lambda i=i: i * i)
                for i in range(8)
            ])
            stats = scheduler.stats
            await scheduler.stop()
            return results, stats

        results, stats = run(scenario())
        assert results == [i * i for i in range(8)]
        assert stats.executed == 8
        assert stats.coalesced == 0

    def test_key_reusable_after_completion(self):
        """Coalescing merges only *in-flight* duplicates; a finished key
        runs again (and is then typically a cache hit at the engine)."""
        async def scenario():
            scheduler = RequestScheduler(workers=1, max_queue=4)
            await scheduler.start()
            first = await scheduler.submit("k", lambda: 1)
            second = await scheduler.submit("k", lambda: 2)
            stats = scheduler.stats
            await scheduler.stop()
            return first, second, stats

        first, second, stats = run(scenario())
        assert (first, second) == (1, 2)
        assert stats.executed == 2
        assert stats.coalesced == 0


class TestFailuresAndLimits:
    def test_exceptions_propagate_to_every_waiter(self):
        async def scenario():
            scheduler = RequestScheduler(workers=2, max_queue=8)
            await scheduler.start()

            def boom():
                time.sleep(0.05)
                raise ValueError("engine exploded")

            tasks = [
                asyncio.create_task(scheduler.submit("bad", boom))
                for _ in range(3)
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            stats = scheduler.stats
            await scheduler.stop()
            return outcomes, stats

        outcomes, stats = run(scenario())
        assert all(isinstance(o, ValueError) for o in outcomes)
        assert stats.failed == 1
        # a failure does not wedge the worker
        assert stats.executed == 0

    def test_worker_survives_failure(self):
        async def scenario():
            scheduler = RequestScheduler(workers=1, max_queue=8)
            await scheduler.start()
            with pytest.raises(RuntimeError):
                await scheduler.submit("a", self._raise_runtime)
            value = await scheduler.submit("b", lambda: "alive")
            await scheduler.stop()
            return value

        assert run(scenario()) == "alive"

    @staticmethod
    def _raise_runtime():
        raise RuntimeError("first job fails")

    def test_bounded_queue_applies_backpressure(self):
        """With a 1-slot queue and 1 worker, many distinct jobs still all
        complete — submission just waits for space."""
        async def scenario():
            scheduler = RequestScheduler(workers=1, max_queue=1)
            await scheduler.start()
            results = await asyncio.gather(*[
                scheduler.submit(i, lambda i=i: i) for i in range(12)
            ])
            stats = scheduler.stats
            await scheduler.stop()
            return results, stats

        results, stats = run(scenario())
        assert results == list(range(12))
        assert stats.executed == 12
        assert stats.max_queue_depth <= 1

    def test_submit_requires_running_scheduler(self):
        async def scenario():
            scheduler = RequestScheduler()
            with pytest.raises(RuntimeError):
                await scheduler.submit("k", lambda: 1)

        run(scenario())


class TestCrashesAndCancellation:
    """Jobs raising a ``BaseException``, ``stop()`` and cancelled waiters."""

    @staticmethod
    async def _wait_for(condition, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        assert condition()

    def test_crashing_jobs_fail_their_waiters_and_the_pool_keeps_serving(self):
        async def scenario():
            scheduler = RequestScheduler(workers=1, max_queue=8)
            await scheduler.start()
            try:
                crashes = [KeyboardInterrupt, SystemExit] * 3
                for attempt, crash in enumerate(crashes):
                    release = threading.Event()

                    def job(crash=crash, release=release):
                        release.wait(timeout=5.0)
                        raise crash("job-level crash")

                    waiters = [
                        asyncio.create_task(
                            scheduler.submit(("crash", attempt), job),
                        )
                        for _ in range(2)
                    ]
                    await self._wait_for(
                        lambda: scheduler.stats.coalesced == attempt + 1,
                    )
                    release.set()
                    outcomes = await asyncio.gather(
                        *waiters, return_exceptions=True,
                    )
                    for outcome in outcomes:
                        assert isinstance(outcome, ServiceError)
                        assert crash.__name__ in str(outcome)
                    value = await scheduler.submit(
                        ("after", attempt), lambda attempt=attempt: attempt,
                    )
                    assert value == attempt
                return scheduler.stats
            finally:
                await scheduler.stop()

        stats = run(scenario())
        assert stats.failed == 6
        assert stats.executed == 6

    def test_stop_releases_running_and_queued_waiters(self):
        async def scenario():
            scheduler = RequestScheduler(workers=1, max_queue=8)
            await scheduler.start()
            started = threading.Event()

            def running_job():
                started.set()
                time.sleep(0.2)
                return "finished after stop"

            waiters = [
                asyncio.create_task(scheduler.submit("running", running_job)),
            ]
            await self._wait_for(started.is_set)
            waiters += [
                asyncio.create_task(
                    scheduler.submit(("queued", i), lambda i=i: i),
                )
                for i in range(3)
            ]
            await self._wait_for(lambda: scheduler.queue_saturation() == 3 / 8)
            await scheduler.stop()
            return await asyncio.wait_for(
                asyncio.gather(*waiters, return_exceptions=True), 5.0,
            )

        outcomes = run(scenario())
        assert len(outcomes) == 4
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)

    def test_cancelled_waiter_leaves_the_shared_job_to_the_other(self):
        async def scenario():
            scheduler = RequestScheduler(workers=2, max_queue=8)
            await scheduler.start()
            calls = []
            release = threading.Event()

            def slow_job():
                calls.append(1)
                release.wait(timeout=5.0)
                return 42

            first, second = [
                asyncio.create_task(scheduler.submit("shared", slow_job))
                for _ in range(2)
            ]
            await self._wait_for(lambda: scheduler.stats.coalesced == 1)
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            release.set()
            value = await asyncio.wait_for(second, 5.0)
            stats = scheduler.stats
            await scheduler.stop()
            return value, len(calls), stats

        value, executions, stats = run(scenario())
        assert value == 42
        assert executions == 1
        assert stats.executed == 1

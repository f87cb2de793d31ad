"""Request scheduling: bounded queue, worker pool, request coalescing.

The service's unit of work is a *keyed job*: a canonical request key plus
a zero-argument callable producing the answer.  The scheduler guarantees

* **coalescing** — identical in-flight requests share one computation:
  the second ``submit`` of a key awaits the first key's job instead of
  starting new work (heavy traffic on a hot (pattern, target) pair costs
  one count, not N);
* **cached answers on the loop** — a submission that finds no in-flight
  job may carry a *probe*, a cheap memory-only lookup the scheduler
  calls on the event loop before it creates a job: a non-``None`` answer
  is returned at once and never crosses to the pool (the service probes
  warm hom counts this way);
* **bounded queueing** — at most ``max_queue`` jobs wait for a worker;
  later jobs wait for a queue slot (the HTTP handler simply awaits;
  clients see latency, the process never sees an unbounded queue);
* **limited concurrency** — jobs run on a thread pool of ``workers``
  threads, at most ``workers`` at once, so the engine's lock-guarded
  caches are shared safely.

A job is one asyncio task, shared by every waiter of its key: it takes a
queue slot, trades it for a worker slot (both are semaphores on the event
loop), and runs its callable on the pool through ``run_in_executor``.
Everything is stdlib asyncio; the scheduler owns its executor and is
started/stopped with the server.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.errors import ServiceError
from repro.obs import family_snapshot, get_logger, log_event, registry
from repro.obs.trace import bind_current_context, current_trace_id

_log = get_logger("scheduler")


@dataclass
class SchedulerStats:
    """Counters for one :class:`RequestScheduler`."""

    # Each submission also counts under how it was served, so
    # submitted == executed + coalesced + cached + failed (a job that
    # stop() cancels counts under none of them).
    submitted: int = 0
    coalesced: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    max_queue_depth: int = 0

    @property
    def coalesce_rate(self) -> float:
        return self.coalesced / self.submitted if self.submitted else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "max_queue_depth": self.max_queue_depth,
            "coalesce_rate": round(self.coalesce_rate, 4),
        }


class RequestScheduler:
    """A coalescing, bounded, concurrency-limited job scheduler."""

    def __init__(self, workers: int = 4, max_queue: int = 256) -> None:
        if workers < 1:
            raise ServiceError("workers must be positive")
        if max_queue < 1:
            raise ServiceError("max_queue must be positive")
        self.workers = workers
        self.max_queue = max_queue
        self.stats = SchedulerStats()
        self._inflight: dict = {}  # key -> the job's task
        self._queued = 0  # jobs holding a queue slot, waiting for a worker
        self._queue_slots: asyncio.Semaphore | None = None
        self._worker_slots: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        # Shared, process-global latency families (idempotent re-lookup).
        reg = registry()
        self._wait_hist = reg.histogram(
            "repro_scheduler_wait_ms",
            "Time jobs spend queued before a worker picks them up.",
        )
        self._run_hist = reg.histogram(
            "repro_scheduler_run_ms",
            "Time jobs spend executing on the worker pool.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._executor is not None:
            return
        self._queue_slots = asyncio.Semaphore(self.max_queue)
        self._worker_slots = asyncio.Semaphore(self.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-service",
        )

    async def stop(self) -> None:
        """Cancel every queued and running job (their waiters see
        ``CancelledError``), then wait for the pool's threads to finish
        what they already started."""
        executor, self._executor = self._executor, None
        jobs = list(self._inflight.values())
        for job in jobs:
            job.cancel()
        await asyncio.gather(*jobs, return_exceptions=True)
        self._inflight.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    @property
    def running(self) -> bool:
        return self._executor is not None

    @property
    def workers_alive(self) -> int:
        """Worker threads serving jobs: all of them while running."""
        return self.workers if self.running else 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(
        self, key, fn: Callable[[], object],
        probe: Callable[[], object] | None = None,
    ):
        """Run ``fn`` (or join the identical in-flight request) and return
        its result.  ``key`` must canonically identify the work.

        ``probe``, when given, runs on the event loop before a new job is
        created (a request joining an in-flight job does not probe): a
        non-``None`` result is the answer, counted as ``cached``, and no
        job runs.  It must be memory-only and never block.
        """
        if self._executor is None:
            raise RuntimeError("scheduler is not running")
        self.stats.submitted += 1
        job = self._inflight.get(key)
        if job is None:
            if probe is not None:
                try:
                    value = probe()
                except Exception:
                    self.stats.failed += 1
                    raise
                if value is not None:
                    self.stats.cached += 1
                    return value
            # The task runs in a copy of the submitter's context, which
            # _execute binds to the pool thread (trace ids survive the hop).
            job = asyncio.create_task(self._job(key, fn, perf_counter()))
            self._inflight[key] = job
        else:
            self.stats.coalesced += 1
        # shield: one cancelled waiter must not cancel the shared job.
        return await asyncio.shield(job)

    async def _job(self, key, fn: Callable[[], object], submitted_at: float):
        try:
            async with self._queue_slots:
                self._queued += 1
                if self._queued > self.stats.max_queue_depth:
                    self.stats.max_queue_depth = self._queued
                try:
                    await self._worker_slots.acquire()
                finally:
                    self._queued -= 1
            try:
                return await self._execute(fn, submitted_at)
            finally:
                self._worker_slots.release()
        finally:
            self._inflight.pop(key, None)

    async def _execute(self, fn: Callable[[], object], submitted_at: float):
        started_at = perf_counter()
        self._wait_hist.observe((started_at - submitted_at) * 1000.0)
        try:
            value = await asyncio.get_running_loop().run_in_executor(
                self._executor, bind_current_context(fn),
            )
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            self.stats.failed += 1
            self._run_hist.observe((perf_counter() - started_at) * 1000.0)
            trace_id = current_trace_id()
            log_event(
                _log, logging.ERROR, "worker-error",
                code=getattr(error, "code", "internal-error"),
                error=str(error),
                error_type=type(error).__name__,
                **({"trace_id": trace_id} if trace_id else {}),
            )
            if isinstance(error, Exception):
                raise
            # A task re-raises KeyboardInterrupt / SystemExit out of the
            # event loop; the job's waiters get a ServiceError instead.
            raise ServiceError(
                f"scheduler job crashed: {type(error).__name__}: {error}",
            ) from error
        self.stats.executed += 1
        self._run_hist.observe((perf_counter() - started_at) * 1000.0)
        return value

    # ------------------------------------------------------------------
    # metrics export
    # ------------------------------------------------------------------
    def metric_families(self) -> list[tuple[str, dict]]:
        """Scheduler counters and live queue depth as metric families."""
        snapshot = self.stats.snapshot()
        events = [
            ({"event": event}, snapshot[event])
            for event in ("submitted", "coalesced", "executed", "cached", "failed")
        ]
        return [
            family_snapshot(
                "repro_scheduler_requests_total", "counter", events,
                help="Requests submitted, and how each ended: coalesced, "
                "executed, cached (answered by the probe), or failed.",
            ),
            family_snapshot(
                "repro_scheduler_queue_depth", "gauge", [({}, self._queued)],
                help="Jobs currently waiting in the scheduler queue.",
            ),
            family_snapshot(
                "repro_scheduler_queue_depth_max", "gauge",
                [({}, snapshot["max_queue_depth"])],
                help="High-water mark of the scheduler queue.",
            ),
            family_snapshot(
                "repro_scheduler_workers_alive", "gauge",
                [({}, self.workers_alive)],
                help="Worker slots currently alive (configured: workers).",
            ),
        ]

    # ------------------------------------------------------------------
    # health probes
    # ------------------------------------------------------------------
    def queue_saturation(self) -> float:
        """Live queue depth as a fraction of ``max_queue``."""
        return self._queued / self.max_queue

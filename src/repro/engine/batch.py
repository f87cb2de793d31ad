"""Batched pattern-set × target-set evaluation.

The hot workloads — WL indistinguishability (one pattern family, two
targets), hom-profile features (one family, many targets), E1/E6
benchmarks — are all cross products.  :func:`run_batch` evaluates the full
``len(patterns) × len(targets)`` matrix with each pattern compiled exactly
once, consulting the engine's count cache before any recomputation.

An optional worker pool splits the matrix into pattern-aligned chunks
(so every worker also compiles each of its patterns only once).  Two
pool flavours are supported: ``pool='process'`` (``multiprocessing``,
sidesteps the GIL for pure-Python counting) and ``pool='thread'``
(``concurrent.futures.ThreadPoolExecutor`` — no fork or pickling cost,
the right choice when the numpy kernel tier carries the counting work,
since the heavy ndarray steps release the GIL).  ``pool=None`` lets the
kernel cost model pick: threads when the vectorised DP tier would serve
the batch's targets, processes otherwise.  Pool results are folded back
into the engine cache, so a parallel batch warms subsequent sequential
calls.  Pool failures — missing OS support in sandboxes, unpicklable
exotic vertex labels — degrade silently to the sequential path:
batching is an optimisation, never a correctness dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.engine.plans import compile_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.engine import HomEngine

# Minimum number of (pattern, target) cells per worker chunk; below this the
# fork/pickle overhead dwarfs the counting work.
_MIN_CHUNK = 4


def _pool_worker(task: tuple[Graph, list[Graph]]) -> list[int]:
    """Count one pattern against a chunk of targets (runs in a worker)."""
    pattern, targets = task
    plan = compile_plan(pattern)
    return [plan.execute(target) for target in targets]


def _chunked(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _pick_pool(targets: Sequence[Graph]) -> str:
    """``'thread'`` when the vectorised kernel would carry the work.

    Worker chunks spend their time in ``plan.execute``; if the kernel
    cost model routes the median target to the numpy DP tier, those
    executions release the GIL inside the ndarray steps and threads beat
    the fork + pickle tax of a process pool.
    """
    from repro import kernel

    sizes = sorted(target.num_vertices() for target in targets)
    median = sizes[len(sizes) // 2] if sizes else 0
    return "thread" if kernel.would_select("dp", median) == "numpy" else "process"


def _run_batch_pool(
    engine: "HomEngine",
    patterns: Sequence[Graph],
    targets: Sequence[Graph],
    processes: int,
    pool: str,
) -> list[list[int]] | None:
    # Probe the count cache first; only misses travel to the pool, so a
    # warm repeat of a parallel batch never forks at all.
    rows: list[list[int | None]] = [
        [engine.cached_count(pattern, target) for target in targets]
        for pattern in patterns
    ]
    tasks: list[tuple[Graph, list[Graph]]] = []
    slots: list[tuple[int, list[int]]] = []
    total_missing = sum(row.count(None) for row in rows)
    if total_missing == 0:
        return rows  # type: ignore[return-value]
    chunk_size = max(_MIN_CHUNK, total_missing // processes or 1)
    for i, pattern in enumerate(patterns):
        missing = [j for j, value in enumerate(rows[i]) if value is None]
        for chunk in _chunked(missing, chunk_size):
            tasks.append((pattern, [targets[j] for j in chunk]))
            slots.append((i, chunk))

    try:
        if pool == "thread":
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=processes) as executor:
                chunk_results = list(executor.map(_pool_worker, tasks))
        else:
            import multiprocessing

            with multiprocessing.Pool(processes=processes) as worker_pool:
                chunk_results = worker_pool.map(_pool_worker, tasks)
    except Exception:  # pragma: no cover - platform-dependent failure modes
        return None

    for (i, chunk), counts in zip(slots, chunk_results):
        chunk_targets = [targets[j] for j in chunk]
        for j, value in zip(chunk, counts):
            rows[i][j] = value
        engine.seed_counts(patterns[i], chunk_targets, counts)
    return rows  # type: ignore[return-value]


def run_batch(
    engine: "HomEngine",
    patterns: Sequence[Graph],
    targets: Sequence[Graph],
    allowed: Mapping[Vertex, frozenset] | None = None,
    processes: int | None = None,
    pool: str | None = None,
) -> list[list[int]]:
    """``rows[i][j] = |Hom(patterns[i], targets[j])|`` with plan reuse.

    ``allowed`` (applied uniformly to every pair) forces the sequential
    path; ``processes > 1`` requests a worker pool for the unrestricted
    case.  ``pool`` selects the pool flavour — ``'process'``,
    ``'thread'``, or ``None`` for the kernel-aware automatic choice
    (threads when the numpy tier would serve the targets).
    """
    if pool not in (None, "process", "thread"):
        raise ValueError(f"unknown pool flavour {pool!r}")
    patterns = list(patterns)
    targets = list(targets)
    if not patterns or not targets:
        return [[] for _ in patterns]

    if (
        allowed is None
        and processes is not None
        and processes > 1
        and len(patterns) * len(targets) >= 2 * _MIN_CHUNK
    ):
        rows = _run_batch_pool(
            engine, patterns, targets, processes,
            pool or _pick_pool(targets),
        )
        if rows is not None:
            return rows

    return [
        [engine.count(pattern, target, allowed=allowed) for target in targets]
        for pattern in patterns
    ]

"""The closed-loop load generator and the op → HTTP call mapping.

Two client threads, each with its own :class:`ServiceClient`, send their
next request only after the previous reply arrived (every caller of this
service blocks on its reply).  Threads draw ops from shared
:class:`OpStream` s in list order, so the traffic is the seeded op list
whatever the interleaving.  Ops that start before the deadline run to
completion; the window ends when the last of them does.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.api.tasks import HomCountTask
from repro.errors import ServiceError


class OpStream:
    """A thread-safe cursor over an op list (optionally wrapping around)."""

    def __init__(self, ops: list, cycle: bool = True) -> None:
        if not ops:
            raise ValueError("an op stream needs at least one op")
        self.ops = ops
        self.cycle = cycle
        self._next = 0
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            index = self._next
            if index >= len(self.ops) and not self.cycle:
                return None
            self._next += 1
        return self.ops[index % len(self.ops)]


@dataclass
class Record:
    """One op as the client saw it."""

    op: tuple
    start: float
    end: float
    value: object = None
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def execute(client, inputs, op):
    """Send one op; return the answer the oracle checks."""
    kind = op[0]
    if kind == "count":
        payload = client.count(inputs.patterns[op[1]], inputs.target(op[2]))
        return payload["count"]
    if kind in ("task", "read"):
        payload = client.run_task(HomCountTask(inputs.patterns[op[1]], op[2]))
        return payload["value"] if kind == "task" else (
            payload["value"], payload["version"],
        )
    if kind == "answers":
        return client.count_answers(inputs.queries[op[1]], op[2])["count"]
    if kind == "wl-dim":
        return client.wl_dim(inputs.queries[op[1]])["wl_dimension"]
    if kind == "analyze":
        return client.analyze(inputs.queries[op[1]])["analysis"]
    if kind == "write":
        name, adds, removes = inputs.writes[op[1]]
        payload = client.target_update(name, add_edges=adds, remove_edges=removes)
        return payload["version"], {
            sub["id"]: (sub["value"], sub["version"])
            for sub in payload["subscriptions"]
        }
    raise ValueError(f"unknown op kind {kind!r}")


def run_one(client, inputs, op, tracer=None, **tags) -> Record:
    """Execute and time one op; transport and server errors are recorded,
    not raised (they count as failed ops)."""
    context = tracer.span(f"client.{op[0]}", **tags) if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with context:
            value, error = execute(client, inputs, op), None
    except (ServiceError, KeyError, TypeError) as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Record(op, start, time.perf_counter(), value, error)


def closed_loop(
    clients: list,
    streams: list[OpStream],
    inputs,
    seconds: float,
    tracer=None,
    tags: dict | None = None,
) -> tuple[list[Record], float]:
    """Drive ``clients[i]`` from ``streams[i]`` for ``seconds``.

    Returns the records and the window length (first start to last end).
    """
    tags = dict(tags or {})
    records: list[list[Record]] = [[] for _ in clients]
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def worker(slot: int) -> None:
        client, stream, out = clients[slot], streams[slot], records[slot]
        try:
            while time.perf_counter() < deadline:
                op = stream.take()
                if op is None:
                    return
                out.append(run_one(client, inputs, op, tracer, **tags))
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = sorted((r for out in records for r in out), key=lambda r: r.start)
    end = max((r.end for r in merged), default=start)
    return merged, end - start

"""Benchmark-side spans: kept in memory, written out once at the end.

Spans wrap calls *into* the program (client requests, in-process calls to
each layer's public functions); the program itself is not instrumented.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1].id if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(self)


class Tracer:
    """Collects spans from any thread; parents follow per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: _Span) -> None:
        entry = {
            "id": span.id, "parent": span.parent, "name": span.name,
            "start": span.start, "end": span.end, **span.attrs,
        }
        with self._lock:
            self.spans.append(entry)

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) * 1000.0 for s in self.spans if s["name"] == name
        ]

    def self_ms(self, name: str) -> list[float]:
        """Self time of every span called ``name``."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        return [
            (s["end"] - s["start"] - _covered(children.get(s["id"], ()))) * 1000.0
            for s in self.spans
            if s["name"] == name
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, default=repr) + "\n")


def _covered(children) -> float:
    """Length of the union of the children's intervals."""
    total, reach = 0.0, None
    for child in sorted(children, key=lambda c: c["start"]):
        start, end = child["start"], child["end"]
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total

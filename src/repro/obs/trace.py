"""Lightweight tracing: per-request span trees with monotonic timings.

A :class:`Span` is one timed operation; ``with span("engine.compile",
backend="dp"):`` opens a child of whatever span is current in this
context.  The current span propagates through :mod:`contextvars`, so

* ``asyncio`` tasks inherit the span that was current when the task was
  created (tasks copy their creation context);
* thread/worker-pool dispatches keep their parent trace when the callable
  is run inside :func:`contextvars.copy_context` — which the service
  scheduler does for every job, and :func:`bind_current_context` does for
  ad-hoc ``ThreadPoolExecutor.submit`` calls.

Every *root* span (no parent at entry) gets a process-unique ``trace_id``
and, on exit, may land in two bounded ring buffers: the recent *slow*
traces capture every root over the one slow threshold
(:func:`repro.obs.slowlog.set_slowlog_threshold_ms`, ``REPRO_SLOWLOG_MS``,
shared with the slow-query log), while the recent ring keeps one in
:func:`set_trace_sampling` sub-threshold roots (default 1-in-8).
Sampling is what keeps retention off the fast path — filling a ring on
every call means evicting (and touching) a stone-cold span allocated
hundreds of calls ago, which costs more than the tracing itself.
``GET /traces`` and ``repro trace`` read these buffers.

Tracing is a process switch (:func:`set_tracing`, honouring the
``REPRO_TRACE`` environment variable, default **on**).  Disabled spans
still time themselves — ``Result.elapsed_ms`` and the CLI's timing output
come from this one code path either way — but skip the contextvar
plumbing, tree building, and ring buffers, so the disabled cost is two
``perf_counter`` calls, same as the hand-rolled pairs they replaced.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from contextvars import ContextVar, Token, copy_context
from threading import get_ident
from time import perf_counter

__all__ = [
    "Span",
    "span",
    "leaf_span",
    "child_span",
    "current_span",
    "current_trace_id",
    "set_tracing",
    "tracing_enabled",
    "set_trace_sampling",
    "trace_sampling",
    "recent_traces",
    "slow_traces",
    "clear_traces",
    "span_to_dict",
    "render_span",
    "bind_current_context",
]

_current_span: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None,
)

_enabled = os.environ.get("REPRO_TRACE", "1").strip().lower() not in (
    "0", "false", "off", "no",
)

RECENT_LIMIT = 256
SLOW_LIMIT = 64
# Hot-path comparison unit (seconds); repro.obs.slowlog owns the knob and
# writes it here, so the check in Span.__exit__ stays one float compare.
_slow_threshold_s = 0.1
_recent_sample = 8  # keep 1-in-K sub-threshold roots in the recent ring
_sample_tick = itertools.count(1)

# deque.append is atomic under the GIL; no lock needed on the hot path.
_recent: deque = deque(maxlen=RECENT_LIMIT)
_slow: deque = deque(maxlen=SLOW_LIMIT)

# Pre-bound hot-path callables: Span.__enter__/__exit__ run once per task
# on the warm serving path, so every attribute lookup shaved here is a
# measurable slice of the <5% overhead budget (see benchmarks/bench_obs).
_cv_set = _current_span.set
_cv_reset = _current_span.reset
_MISSING = Token.MISSING
_recent_append = _recent.append
_slow_append = _slow.append

_trace_ids = itertools.count(1)
_trace_prefix = f"{os.getpid():x}"
_config_lock = threading.Lock()

def set_tracing(enabled: bool) -> bool:
    """Switch span-tree collection on/off; returns the previous setting."""
    global _enabled
    with _config_lock:
        previous = _enabled
        _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    return _enabled


def set_trace_sampling(every: int) -> int:
    """Keep one in ``every`` sub-threshold root spans in the recent ring.

    ``1`` retains every trace (what tests want for determinism); the
    default of 8 amortises ring-buffer eviction to noise on warm serving
    paths.  Slow roots are always retained regardless.  Returns the
    previous setting.
    """
    global _recent_sample
    every = int(every)
    if every < 1:
        raise ValueError("trace sampling stride must be >= 1")
    with _config_lock:
        previous = _recent_sample
        _recent_sample = every
    return previous


def trace_sampling() -> int:
    return _recent_sample


class Span:
    """One timed operation; ``live`` spans additionally build the tree."""

    __slots__ = (
        "name", "attrs", "live", "register", "parent", "children",
        "start", "end", "_token", "_trace_id",
    )

    def __init__(
        self, name: str, live: bool, attrs: dict, register: bool = True,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.live = live
        self.register = register
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.start = 0.0
        self.end = 0.0
        self._token = None
        self._trace_id: str | None = None

    def __enter__(self) -> "Span":
        if self.live:
            if self.register:
                # One contextvar op, not two: the set() token remembers
                # the displaced value, which is exactly the parent span
                # (unless an explicit parent was already assigned).
                token = _cv_set(self)
                self._token = token
                if self.parent is None:
                    parent = token.old_value
                    if parent is not _MISSING:
                        self.parent = parent
            elif self.parent is None:
                # Leaf spans pay a contextvar *read* (~3x cheaper than
                # set+reset, and no Token churn) and never publish
                # themselves — right for hot paths whose children, if
                # any, are handed the parent explicitly.
                self.parent = _current_span.get()
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = perf_counter()
        if not self.live:
            return
        token = self._token
        if token is not None:
            _cv_reset(token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        parent = self.parent
        if parent is not None:
            parent.children.append(self)
        elif self.end - self.start >= _slow_threshold_s:
            _slow_append(self)
            _recent_append(self)
        elif next(_sample_tick) % _recent_sample == 0:
            _recent_append(self)

    # ------------------------------------------------------------------
    @property
    def trace_id(self) -> str | None:
        """Process-unique id of this span's trace (``None`` when dead).

        Allocated lazily on first read (memoised per root), so warm-path
        spans that nobody inspects never pay for the id at all.
        """
        if self._trace_id is None and self.live:
            parent = self.parent
            if parent is not None:
                self._trace_id = parent.trace_id
            else:
                self._trace_id = f"{_trace_prefix}-{next(_trace_ids):x}"
        return self._trace_id

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end else perf_counter()
        return (end - self.start) * 1000.0

    def annotate(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (backend chosen, …)."""
        self.attrs.update(attrs)
        return self

    def adopt_trace(self, trace_id: str | None) -> "Span":
        """Join a caller-supplied trace instead of allocating a fresh id.

        Cross-process propagation: the server's root request span adopts
        the id the client sent in ``X-Repro-Trace``, so server-side spans
        land in the trace rings under the *caller's* trace id and one id
        follows a request across the wire.  Only live root spans adopt —
        a nested span already shares its parent's trace."""
        if trace_id and self.live and self.parent is None:
            self._trace_id = str(trace_id)
        return self

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
            f"children={len(self.children)})"
        )


# ----------------------------------------------------------------------
# profiler hook (see repro.obs.profile)
#
# The sampling profiler runs on its own thread and cannot read another
# thread's contextvars, so while a profiler is attached every live span
# additionally publishes itself in this thread-keyed table on enter and
# restores its parent on exit.  The bookkeeping lives in *replacement*
# ``__enter__``/``__exit__`` methods swapped onto :class:`Span` by
# :func:`_set_profile_hook` — the default span hot path carries no
# profiler code at all, so the profiler-disabled overhead is exactly
# zero (``benchmarks/bench_obs.py`` gates that enabling and disabling
# the hook restores the original method objects and timing).
# ----------------------------------------------------------------------
_profiling = False
_profile_threads: dict[int, Span] = {}

_plain_enter = Span.__enter__
_plain_exit = Span.__exit__


def _profiled_enter(self: Span) -> Span:
    _plain_enter(self)
    if self.live:
        _profile_threads[get_ident()] = self
    return self


def _profiled_exit(self: Span, exc_type, exc, tb) -> None:
    _plain_exit(self, exc_type, exc, tb)
    if self.live:
        parent = self.parent
        if parent is None:
            _profile_threads.pop(get_ident(), None)
        else:
            _profile_threads[get_ident()] = parent


def _set_profile_hook(enabled: bool) -> None:
    global _profiling
    with _config_lock:
        _profiling = bool(enabled)
        if enabled:
            Span.__enter__ = _profiled_enter  # type: ignore[method-assign]
            Span.__exit__ = _profiled_exit  # type: ignore[method-assign]
        else:
            Span.__enter__ = _plain_enter  # type: ignore[method-assign]
            Span.__exit__ = _plain_exit  # type: ignore[method-assign]
            _profile_threads.clear()


def span(name: str, **attrs) -> Span:
    """A context manager timing one operation as a span.

    With tracing enabled the span joins the current context's span tree
    (becoming a root span — with a fresh ``trace_id`` — when no span is
    current); disabled, it only records start/stop times.
    """
    return Span(name, _enabled, attrs)


def leaf_span(name: str, **attrs) -> Span:
    """A span that never publishes itself in the ambient context.

    It still nests under the current span and still lands in the ring
    buffers when it is a root, but spans opened inside its ``with`` block
    will NOT see it as their parent — callees must be handed the span
    explicitly (see :func:`child_span`).  Use it on hot paths: skipping
    contextvar registration roughly halves the per-span cost, which is
    what keeps warm cache-hit task dispatch inside the bench_obs budget.
    """
    return Span(name, _enabled, attrs, register=False)


def child_span(parent: Span | None, name: str, **attrs) -> Span:
    """A span with an explicitly assigned parent.

    The escape hatch pairing :func:`leaf_span`: when the caller holds a
    non-registered span, it passes it down so cold-path children still
    nest correctly.  A dead or ``None`` parent falls back to ambient
    discovery, so callees need no tracing-mode conditionals.
    """
    created = Span(name, _enabled, attrs)
    if parent is not None and parent.live:
        created.parent = parent
    return created


def current_span() -> Span | None:
    """The innermost live span in this context, if any."""
    return _current_span.get()


def current_trace_id() -> str | None:
    """The trace id of the current context's span tree, if any."""
    active = _current_span.get()
    return active.trace_id if active is not None else None


def recent_traces(limit: int | None = None) -> list[Span]:
    """The most recent completed root spans, newest last."""
    traces = list(_recent)
    return traces if limit is None else traces[-limit:]


def slow_traces(limit: int | None = None) -> list[Span]:
    """Recent root spans over the slow threshold, newest last."""
    traces = list(_slow)
    return traces if limit is None else traces[-limit:]


def clear_traces() -> None:
    _recent.clear()
    _slow.clear()


def bind_current_context(fn):
    """Wrap ``fn`` to run inside a copy of the *calling* context.

    ``ThreadPoolExecutor`` (and ``loop.run_in_executor``) do not
    propagate contextvars; submitting ``bind_current_context(fn)``
    instead of ``fn`` keeps the caller's span current inside the worker,
    so spans opened there nest under the caller's trace.
    """
    ctx = copy_context()

    def bound(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return bound


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def span_to_dict(node: "Span | dict") -> dict:
    """A span tree as a JSON-able dict (the wire/trace-endpoint shape)."""
    if isinstance(node, dict):
        return node
    payload: dict = {
        "name": node.name,
        "duration_ms": round(node.duration_ms, 3),
    }
    if node.trace_id is not None:
        payload["trace_id"] = node.trace_id
    if node.attrs:
        payload["attrs"] = {
            key: value
            if isinstance(value, (str, int, float, bool, type(None)))
            else repr(value)
            for key, value in node.attrs.items()
        }
    if node.children:
        payload["children"] = [span_to_dict(child) for child in node.children]
    return payload


def render_span(node: "Span | dict", indent: str = "") -> str:
    """A span tree as indented text (the ``.explain()`` / CLI rendering)."""
    data = span_to_dict(node)
    attrs = data.get("attrs", {})
    attr_text = "".join(
        f"  {key}={attrs[key]}" for key in sorted(attrs)
    )
    trace_id = data.get("trace_id")
    head = (
        f"{indent}{data['name']}  {data['duration_ms']:.3f} ms{attr_text}"
        + (f"  [trace {trace_id}]" if trace_id and not indent else "")
    )
    lines = [head]
    for child in data.get("children", ()):
        lines.append(render_span(child, indent + "  "))
    return "\n".join(lines)

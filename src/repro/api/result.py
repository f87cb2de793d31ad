"""The uniform result object every executor returns.

Whatever a task ran on — the in-process engine, the counting service over
HTTP, or a dynamic maintained handle — the caller gets back one
:class:`Result`: the value, which backend produced it, whether it came
from cache, which target *version* it describes, timing, and a
human-readable :meth:`Result.explain` plan introspection.

``provenance`` carries the per-kind display fields (pattern/target
summaries, the query's logic form, version digests); the
wire layer uses it to rebuild the exact legacy payload shapes, so the
HTTP API did not change shape when the object model moved underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping


@dataclass(frozen=True)
class Result:
    """One executed task: value plus execution provenance."""

    kind: str                      # the task kind that produced it
    value: object                  # int for counts, dict for analyze, ...
    executor: str = "local"        # "local" | "service" | "dynamic"
    backend: str | None = None     # plan description or counting method
    cached: bool | None = None     # True/False when known, None otherwise
    version: int | None = None     # dataset version (versioned targets only)
    provenance: Mapping = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def with_executor(self, executor: str) -> "Result":
        return replace(self, executor=executor)

    @property
    def trace(self):
        """The request's span tree (a live ``Span`` locally, a dict after
        a wire round-trip), or ``None`` when tracing was disabled."""
        return self.provenance.get("trace")

    @property
    def cost(self) -> Mapping | None:
        """Phase cost breakdown (compile/execute/encode/lookup ms + work
        counters), derived lazily from the span tree — or the precomputed
        dict a wire round-trip carried over.  ``None`` when tracing was
        disabled."""
        precomputed = self.provenance.get("cost")
        if precomputed is not None:
            return precomputed
        from repro.obs.cost import cost_breakdown

        return cost_breakdown(self.trace)

    def explain(self) -> str:
        """A multi-line, human-readable account of how the value was made."""
        lines = [f"{self.kind}: {self.value!r}"]
        lines.append(f"  executor   {self.executor}")
        if self.backend is not None:
            lines.append(f"  backend    {self.backend}")
        if self.cached is not None:
            lines.append(f"  cached     {self.cached}")
        if self.version is not None:
            lines.append(f"  version    {self.version}")
        for key in sorted(self.provenance):
            if key in ("trace", "cost"):
                continue
            lines.append(f"  {key:10s} {self.provenance[key]!r}")
        lines.append(f"  elapsed    {self.elapsed_ms:.3f} ms")
        cost = self.cost
        if cost is not None:
            from repro.obs.cost import render_cost

            lines.append("  cost")
            for cost_line in render_cost(cost).splitlines():
                lines.append(f"    {cost_line}")
        trace = self.trace
        if trace is not None:
            from repro.obs.trace import render_span

            lines.append("  trace")
            for trace_line in render_span(trace).splitlines():
                lines.append(f"    {trace_line}")
        return "\n".join(lines)

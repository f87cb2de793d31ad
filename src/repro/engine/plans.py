"""Compilation of patterns into executable counting plans.

Every homomorphism count in the library factors through a *plan*: a
pattern-only artefact that is expensive to build once and cheap to execute
against arbitrarily many targets.  Three plan families cover the cost
spectrum:

* :class:`MatrixPlan` — closed-form linear algebra for paths and cycles
  (``|Hom(P_k, G)| = 1ᵀA^{k-1}1``, ``|Hom(C_k, G)| = trace(A^k)``);
* :class:`DPPlan` — the treewidth DP of :mod:`repro.homs.treewidth_dp`,
  with the nice tree decomposition *and* all per-node bag bookkeeping
  (vertex positions, neighbour positions) compiled once into the flat
  instruction tape that ``count_homomorphisms_dp`` also runs;
* :class:`BrutePlan` — backtracking, still the right answer for tiny or
  dense patterns where decomposition buys nothing.

:func:`compile_plan` chooses between them with a treewidth-aware cost
model: the brute-force search explores ``O(n_G^{|V(H)|})`` states while the
DP explores ``O(n_G^{tw(H)+1})`` per node, so the greedy treewidth upper
bound (cheap, no branch-and-bound) decides which exponent is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.graphs.matrices import count_closed_walks, count_walks
from repro.homs.brute_force import count_homomorphisms_brute
from repro.homs.treewidth_dp import compile_tape, prepared_pattern, run_tape
from repro.treewidth.heuristics import heuristic_treewidth_upper_bound

PlanKind = Literal["constant", "brute", "matrix", "dp"]

# Patterns at or below this size never benefit from a decomposition: the
# DP's table machinery costs more than exhausting the search space.
_TINY_PATTERN_LIMIT = 3


class CountPlan:
    """Base class: a compiled, reusable counter for one pattern."""

    kind: PlanKind = "constant"

    def execute(
        self,
        target: Graph,
        allowed: Mapping[Vertex, frozenset] | None = None,
    ) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable summary (CLI / benchmark reporting)."""
        return self.kind

    def describe_for(self, target: Graph) -> str:
        """:meth:`describe` plus the kernel tier the cost model would
        pick for ``target`` (``.../numpy`` or ``.../python``) — the
        string the task API surfaces as ``Result.backend``."""
        return self.describe()


@dataclass
class ConstantPlan(CountPlan):
    """The empty pattern: exactly one (empty) homomorphism into anything."""

    value: int = 1
    kind: PlanKind = "constant"

    def execute(self, target, allowed=None):
        return self.value


@dataclass
class BrutePlan(CountPlan):
    """Backtracking search — reference backend, kept for tiny/dense patterns."""

    pattern: Graph
    kind: PlanKind = "brute"

    def execute(self, target, allowed=None):
        return count_homomorphisms_brute(self.pattern, target, allowed=allowed)

    def describe(self) -> str:
        return f"brute(n={self.pattern.num_vertices()})"

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("bitset", target.num_vertices())
        return f"{self.describe()}/{tier}"


@dataclass
class MatrixPlan(CountPlan):
    """Closed-form plan for paths/cycles via adjacency-matrix powers.

    ``shape='path'`` counts walks with ``length`` edges
    (``|Hom(P_{length+1}, G)|``); ``shape='cycle'`` counts closed walks of
    ``length`` edges (``|Hom(C_length, G)|``, ``length >= 3``).

    Colour restrictions (``allowed``) have no closed form, so the plan
    carries a combinatorial ``fallback`` used whenever they are present.
    """

    pattern: Graph
    shape: Literal["path", "cycle"]
    length: int
    fallback: CountPlan
    kind: PlanKind = "matrix"

    def execute(self, target, allowed=None):
        if allowed is not None:
            return self.fallback.execute(target, allowed=allowed)
        if self.shape == "path":
            return count_walks(target, self.length)
        return count_closed_walks(target, self.length)

    def describe(self) -> str:
        return f"matrix({self.shape}, length={self.length})"

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("matrix", target.num_vertices())
        return f"{self.describe()}/{tier}"


@dataclass
class DPPlan(CountPlan):
    """Treewidth DP with a precompiled instruction tape
    (:func:`repro.homs.treewidth_dp.compile_tape`): execution is one loop
    over the tape, with no tree traversal and no pattern-side bag
    bookkeeping per target."""

    pattern: Graph
    width: int
    node_count: int
    instructions: Sequence[tuple] = field(repr=False)
    kind: PlanKind = "dp"

    def execute(self, target, allowed=None, backend: str = "auto"):
        """Count against ``target`` on the tier ``backend`` picks
        (:func:`repro.homs.treewidth_dp.run_tape`); exact on every tier."""
        return run_tape(self.instructions, self.width, target, allowed, backend)

    def describe(self) -> str:
        return (
            f"dp(n={self.pattern.num_vertices()}, width={self.width}, "
            f"nodes={self.node_count})"
        )

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("dp", target.num_vertices())
        if tier == "numpy" and not kernel.dp_packable(
            target.num_vertices(), self.width + 1,
        ):
            tier = "python"
        return f"{self.describe()}/{tier}"


def compile_dp_plan(pattern: Graph) -> DPPlan:
    """Compile the treewidth-DP plan (optimal decomposition, flat tape)."""
    root = prepared_pattern(pattern)
    instructions = compile_tape(pattern, root)
    return DPPlan(
        pattern=pattern,
        width=root.width(),
        node_count=len(instructions),
        instructions=instructions,
    )


def _path_or_cycle(pattern: Graph) -> Literal["path", "cycle"] | None:
    n = pattern.num_vertices()
    if n == 0 or not pattern.is_connected():
        return None
    degrees = [pattern.degree(v) for v in pattern.vertices()]
    m = pattern.num_edges()
    if m == n and all(d == 2 for d in degrees):
        return "cycle"
    if m == n - 1 and max(degrees, default=0) <= 2:
        return "path"
    return None


def select_backend(pattern: Graph) -> Literal["brute", "matrix", "dp"]:
    """The treewidth-aware ``method='auto'`` crossover.

    Brute force explores at most ``n_G^{n}`` assignments for an
    ``n``-vertex pattern; the DP costs ``n_G^{tw+1}`` per nice node plus a
    decomposition.  A cheap greedy upper bound on the treewidth therefore
    settles the choice: the DP wins exactly when it shaves at least one
    exponent level off the search (``tw + 2 <= n``), which routes dense
    small patterns (e.g. K5: tw+1 = n) to brute force and sparse large
    patterns (e.g. trees of any size: tw = 1) to the DP — the two cases a
    fixed vertex-count cutoff gets wrong.
    """
    if _path_or_cycle(pattern) is not None:
        return "matrix"
    n = pattern.num_vertices()
    if n <= _TINY_PATTERN_LIMIT:
        return "brute"
    width_bound, _ = heuristic_treewidth_upper_bound(pattern)
    if width_bound + 2 > n:
        return "brute"
    return "dp"


def compile_plan(pattern: Graph) -> CountPlan:
    """Compile ``pattern`` into the cheapest-to-execute plan."""
    if pattern.num_vertices() == 0:
        return ConstantPlan(1)
    shape = _path_or_cycle(pattern)
    if shape is not None:
        if pattern.num_vertices() <= _TINY_PATTERN_LIMIT + 1:
            fallback: CountPlan = BrutePlan(pattern)
        else:
            fallback = compile_dp_plan(pattern)
        length = (
            pattern.num_vertices()
            if shape == "cycle"
            else pattern.num_vertices() - 1
        )
        return MatrixPlan(
            pattern=pattern, shape=shape, length=length, fallback=fallback,
        )
    if select_backend(pattern) == "brute":
        return BrutePlan(pattern)
    return compile_dp_plan(pattern)

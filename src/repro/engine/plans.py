"""Compilation of patterns into executable counting plans.

Every homomorphism count in the library factors through a *plan*: a
pattern-only artefact that is expensive to build once and cheap to execute
against arbitrarily many targets.  Three plan families cover the cost
spectrum:

* :class:`MatrixPlan` — closed-form linear algebra for paths and cycles
  (``|Hom(P_k, G)| = 1ᵀA^{k-1}1``, ``|Hom(C_k, G)| = trace(A^k)``);
* :class:`DPPlan` — the treewidth DP of :mod:`repro.homs.treewidth_dp`,
  with the tree decomposition *and* all per-bag bookkeeping (vertex
  positions, neighbour and separator positions) compiled once into the
  flat instruction tape that ``count_homomorphisms_dp`` also runs;
* :class:`BrutePlan` — backtracking, still the right answer for tiny or
  dense patterns where decomposition buys nothing.

:func:`compile_plan` chooses between them with a treewidth-aware cost
model: the brute-force search explores ``O(n_G^{|V(H)|})`` states while the
DP explores ``O(n_G^{tw(H)+1})`` per node, so the greedy treewidth upper
bound (cheap, no branch-and-bound) decides which exponent is smaller.

Answer counts of conjunctive queries compile to an :class:`AnswerPlan`
(:func:`compile_answer_plan`), which counts on the query's
counting-minimal core at its semantic extension width — the
WL-dimension (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Literal, Mapping, Sequence

from repro.engine.cache import pattern_key
from repro.graphs.graph import Graph, Vertex
from repro.graphs.matrices import count_closed_walks, count_walks
from repro.homs.brute_force import count_homomorphisms_brute, exists_homomorphism
from repro.homs.treewidth_dp import INTRODUCE, compile_tape, run_tape
from repro.treewidth.exact import optimal_tree_decomposition, treewidth
from repro.treewidth.heuristics import heuristic_treewidth_upper_bound

PlanKind = Literal["constant", "brute", "matrix", "dp", "answer"]

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
    (:func:`repro.homs.treewidth_dp.compile_tape`, compiled from an
    optimal tree decomposition): execution is one loop over the tape,
    with no tree traversal and no pattern-side bag bookkeeping per
    target.  ``node_count`` is the tape's length.  A plan pickled with a
    tape from an older compiler (equal-bag JOINs only) still runs."""

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
        return f"{self.describe()}/{_dp_tier(target, self.width)}"


def _dp_tier(target: Graph, width: int) -> str:
    """The tier :func:`run_tape` would pick for a tape of ``width``."""
    from repro import kernel

    tier = kernel.would_select("dp", target.num_vertices())
    if tier == "numpy" and not kernel.dp_packable(target.num_vertices(), width + 1):
        tier = "python"
    return tier


def compile_dp_plan(pattern: Graph) -> DPPlan:
    """Compile the treewidth-DP plan (optimal decomposition, flat tape)."""
    decomposition = optimal_tree_decomposition(pattern)
    instructions = compile_tape(pattern, decomposition)
    return DPPlan(
        pattern=pattern,
        width=decomposition.width,
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
    ``n``-vertex pattern; the DP costs ``n_G^{tw+1}`` per bag plus a
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


# ----------------------------------------------------------------------
# answer counts
# ----------------------------------------------------------------------
@dataclass
class AnswerPlan(CountPlan):
    """``|Ans((H, X), G)|`` on the counting-minimal core of ``(H, X)``.

    Counting-equivalent queries have isomorphic cores (Lemma 44), so
    ``count_id`` — the core's identity in the engine's count cache — is
    shared by every rephrasing of a query.  A *full* core (no existential
    variables left) counts its answers as ``|Hom(core, G)|``: ``hom`` is
    the core graph's hom-count plan and ``count_id`` its pattern key, so
    the answer shares that hom count's plan and count entry.

    Otherwise each component ``C`` of ``core[Y]`` with attachment ``δ =
    N(C) ∩ X`` becomes a 0/1 table ``R_C = {a ∈ V(G)^δ : a extends to a
    homomorphism of C's edges}``, built per execution and never cached;
    a component with ``δ = ∅`` is a 0/1 factor.  One run of the
    treewidth-DP tape over an optimal decomposition of the contract
    ``Γ(core)[X]`` then counts the assignments of ``X`` that respect the
    real edges of ``core[X]`` and every table (Corollary 4's
    construction; variable elimination with relation factors).  ``δ`` is
    a clique of the contract, so it fits one bag: the tape's width is
    ``tw(Γ(core)[X]) <= sew``, and a table costs ``|V(G)|^{|δ|}`` cheap
    checks, with ``|δ| <= sew + 1``.
    """

    core: Graph
    free: tuple
    sew: int
    count_id: tuple
    hom: CountPlan | None = None
    factors: tuple = ()        # component patterns with δ = ∅
    tables: tuple = ()         # (component pattern, scope δ) pairs
    width: int = 0
    instructions: Sequence[tuple] = field(default=(), repr=False)
    kind: PlanKind = "answer"

    def execute(self, target, allowed=None, backend: str = "auto"):
        if self.hom is not None:
            return self.hom.execute(target)
        for pattern in self.factors:
            if not exists_homomorphism(pattern, target):
                return 0
        if not self.free:
            return 1
        relations = [
            _component_table(pattern, scope, target)
            for pattern, scope in self.tables
        ]
        return run_tape(
            self.instructions, self.width, target, None, backend,
            relations=relations,
        )

    def describe(self) -> str:
        return (
            f"answer-plan(core={self.core.num_vertices()}, sew={self.sew}, "
            f"tables={len(self.tables)})"
        )

    def describe_for(self, target: Graph) -> str:
        if self.hom is not None:
            return f"{self.describe()}+{self.hom.describe_for(target)}"
        # A tape that checks tables runs the pure loop (run_tape).
        tier = "python" if self.tables else _dp_tier(target, self.width)
        return f"{self.describe()}/{tier}"


def _component_table(pattern: Graph, scope: tuple, target: Graph) -> dict[tuple, int]:
    """``R_C`` in target indices, as :func:`~repro.homs.treewidth_dp.run_tape`
    takes a relation: images of ``scope[:-1]`` → bitset of the images of
    ``scope[-1]`` that complete a row.

    A one-vertex component ``{y}`` admits ``a`` exactly when the images
    of ``δ`` have a common neighbour: one AND of neighbourhood bitsets per
    prefix, and the last slot's images are the neighbours of the common
    ones.  A larger component runs the backtracking search with ``δ``
    fixed, once per tuple of non-isolated vertices.
    """
    indexed = target.to_indexed()
    bits = indexed.bitsets()
    table: dict[tuple, int] = {}
    last = len(scope) - 1
    if pattern.num_vertices() == len(scope) + 1:

        def extend(prefix: tuple, common: int) -> None:
            # ``common``: the images of y adjacent to every image so far.
            reach, pool = 0, common
            while pool:
                low_bit = pool & -pool
                pool ^= low_bit
                reach |= bits[low_bit.bit_length() - 1]
            if len(prefix) == last:
                if reach:
                    table[prefix] = reach
                return
            while reach:
                low_bit = reach & -reach
                reach ^= low_bit
                image = low_bit.bit_length() - 1
                extend(prefix + (image,), common & bits[image])

        extend((), (1 << indexed.n) - 1)
        return table
    labels = indexed.codec.labels
    candidates = [v for v in range(indexed.n) if bits[v]]
    for prefix in product(candidates, repeat=last):
        fixed = {x: labels[image] for x, image in zip(scope, prefix)}
        pool = 0
        for image in candidates:
            fixed[scope[last]] = labels[image]
            if exists_homomorphism(pattern, target, fixed=fixed):
                pool |= 1 << image
        if pool:
            table[prefix] = pool
    return table


def compile_answer_plan(
    query, plan_for=compile_plan, key_for=pattern_key,
) -> AnswerPlan:
    """Compile ``query`` (a :class:`~repro.queries.query.ConjunctiveQuery`)
    into an :class:`AnswerPlan` over its counting-minimal core.

    A full core's hom-count plan comes from ``plan_for`` and its count
    identity from ``key_for``; the engine passes its own, so both are
    shared with hom counts of the core graph.
    """
    from repro.queries.extension import extension_graph
    from repro.queries.minimality import counting_minimal_core

    core = counting_minimal_core(query)
    graph = core.graph
    gamma = extension_graph(core)
    free = tuple(v for v in graph.vertices() if v in core.free_variables)
    plan = AnswerPlan(
        core=graph,
        free=free,
        sew=treewidth(gamma),
        count_id=("answer", core.canonical_key()),
    )
    if core.is_full():
        plan.hom, plan.count_id = plan_for(graph), key_for(graph)
        return plan
    factors, attached = [], []
    for component in core.quantified_components():
        attachment = core.component_attachment(component)
        pattern = graph.induced_subgraph(component | attachment)
        for u, v in graph.induced_subgraph(attachment).edges():
            pattern.remove_edge(u, v)
        (attached if attachment else factors).append((pattern, attachment))
    plan.factors = tuple(pattern for pattern, _ in factors)
    if not free:
        return plan
    # The tape checks the edges of core[X] over a decomposition of the
    # contract, whose cliques on each δ keep every scope inside a bag.
    decomposition = optimal_tree_decomposition(gamma.induced_subgraph(free))
    core_free = graph.induced_subgraph(free)
    scopes = [
        tuple(v for v in free if v in attachment) for _, attachment in attached
    ]
    # The vertex of the first INTRODUCE that checks a table goes last in
    # its scope: the table is indexed by that slot already.
    last: dict[int, Vertex] = {}
    for instruction in compile_tape(core_free, decomposition, scopes):
        if instruction[0] == INTRODUCE and len(instruction) > 4:
            for number, _, _ in instruction[4]:
                last.setdefault(number, instruction[1])
    scopes = [
        tuple(v for v in scope if v != last[number]) + (last[number],)
        for number, scope in enumerate(scopes)
    ]
    plan.tables = tuple(
        (pattern, scope) for (pattern, _), scope in zip(attached, scopes)
    )
    plan.width = decomposition.width
    plan.instructions = compile_tape(core_free, decomposition, scopes)
    return plan

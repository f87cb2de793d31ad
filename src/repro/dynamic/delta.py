"""Delta counting: maintain ``|Hom(H, G)|`` under single-edge target steps.

For a one-edge change the count moves by exactly the number of
homomorphisms whose image *touches* the changed edge:

* inserting ``e``:  ``|Hom(H, G + e)| − |Hom(H, G)| = T(H, G + e, e)``
* deleting ``e``:   ``|Hom(H, G − e)| − |Hom(H, G)| = −T(H, G, e)``

where ``T(H, G, e)`` counts homomorphisms mapping at least one pattern
edge onto ``e`` (both identities are the same set counted on the side of
the graph that contains ``e``).  A batch ``ΔE`` telescopes into ``|ΔE|``
such single-edge steps — deletions first, then insertions — so batch
overlaps (a homomorphism touching several changed edges) are never double
counted: each step counts against the *intermediate* graph.

``T`` itself is inclusion–exclusion over the pattern edges pinned onto
``e = {x, y}``: for every nonempty subset ``S ⊆ E(H)`` and every proper
2-colouring ``φ`` of ``(V(S), S)`` (the homomorphisms ``S → e``),

    T(H, G, e) = Σ_S (−1)^{|S|+1} Σ_φ #extensions of φ to Hom(H, G).

Everything pattern-side is compiled **once** per pattern component
(:func:`compile_delta_plan`): subsets are enumerated, colourings merged
by the vertex assignment they induce (signs cancel aggressively), and
each surviving term gets a precompiled pinned search order.  Executing a
term is then a tiny bitset backtracking over the *residual* pattern —
typically two pattern vertices are pinned onto ``{x, y}`` and the few
remaining ones enumerate over neighbourhood-bitset intersections, so the
per-step cost scales with local degrees, not with ``|V(G)|``.

Patterns here are single connected components
(:class:`~repro.dynamic.maintained.MaintainedCount` factors its pattern
first); disconnected patterns multiply per-component counts, which is
also what makes isolated-vertex bookkeeping exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.graphs.indexed import IndexedGraph
from repro.homs.brute_force import search_order

# 2^MAX_DELTA_EDGES subsets are enumerated at compile time; larger
# patterns always fall back to full recompute (they are rare as counting
# patterns and their recompute cost dwarfs the per-edge delta anyway).
MAX_DELTA_EDGES = 10

_FIXED = 0  # pinned ref into the {x, y} pair
_EARLIER = 1  # pinned ref to an earlier search position


@dataclass(frozen=True)
class DeltaTerm:
    """One merged inclusion–exclusion term with its compiled search.

    ``fixed`` maps pattern indices to a *side* of the changed edge (0 → x,
    1 → y); ``order`` is the search order of the free pattern vertices;
    ``pinned[i]`` lists, for position ``i``, the already-resolved
    neighbour references whose target bitsets constrain the pool.
    """

    coefficient: int
    fixed: tuple[tuple[int, int], ...]
    order: tuple[int, ...]
    pinned: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class DeltaPlan:
    """The compiled delta counter for one connected pattern component."""

    pattern: IndexedGraph
    terms: tuple[DeltaTerm, ...]

    def describe(self) -> str:
        return (
            f"delta(n={self.pattern.n}, m={self.pattern.num_edges()}, "
            f"terms={len(self.terms)})"
        )


def _proper_two_colourings(vertices: set, edges: Sequence[tuple[int, int]]):
    """All maps ``V → {0, 1}`` sending every edge onto {0, 1} properly,
    or ``None`` when an odd cycle makes them impossible."""
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    colour: dict[int, int] = {}
    parts: list[list[int]] = []
    for root in sorted(vertices):
        if root in colour:
            continue
        colour[root] = 0
        part = [root]
        stack = [root]
        while stack:
            current = stack.pop()
            for neighbour in adjacency[current]:
                if neighbour not in colour:
                    colour[neighbour] = colour[current] ^ 1
                    part.append(neighbour)
                    stack.append(neighbour)
                elif colour[neighbour] == colour[current]:
                    return None
        parts.append(part)
    colourings = []
    for flips in product((0, 1), repeat=len(parts)):
        assignment = {}
        for part, flip in zip(parts, flips):
            for vertex in part:
                assignment[vertex] = colour[vertex] ^ flip
        colourings.append(assignment)
    return colourings


def compile_delta_plan(pattern: IndexedGraph) -> DeltaPlan | None:
    """Compile the inclusion–exclusion terms for a *connected* pattern.

    Returns ``None`` when the pattern has no edges (a single vertex — the
    caller tracks those via ``|V(G)|``) or too many for the subset
    enumeration (``> MAX_DELTA_EDGES`` — the caller falls back to full
    recompute).
    """
    edges = list(pattern.edges())
    m = len(edges)
    if m == 0 or m > MAX_DELTA_EDGES:
        return None
    adjacency = pattern.adjacency_lists()

    coefficients: dict[tuple[tuple[int, int], ...], int] = {}
    for mask in range(1, 1 << m):
        subset = [edges[i] for i in range(m) if (mask >> i) & 1]
        vertices = {u for edge in subset for u in edge}
        colourings = _proper_two_colourings(vertices, subset)
        if colourings is None:
            continue
        sign = 1 if mask.bit_count() % 2 == 1 else -1
        for assignment in colourings:
            key = tuple(sorted(assignment.items()))
            coefficients[key] = coefficients.get(key, 0) + sign

    terms: list[DeltaTerm] = []
    for key, coefficient in sorted(coefficients.items()):
        if coefficient == 0:
            continue
        assignment = dict(key)
        # A pattern edge whose endpoints both pin to the same side would
        # need a self-loop in the target: the term is identically zero.
        if any(
            u in assignment and assignment[u] == side
            for vertex, side in key
            for u in adjacency[vertex]
        ):
            continue
        order = search_order(adjacency, set(assignment))
        placed: dict[int, int] = {}
        pinned: list[tuple[tuple[int, int], ...]] = []
        for position, vertex in enumerate(order):
            refs: list[tuple[int, int]] = []
            for u in adjacency[vertex]:
                if u in assignment:
                    refs.append((_FIXED, assignment[u]))
                elif u in placed:
                    refs.append((_EARLIER, placed[u]))
            pinned.append(tuple(refs))
            placed[vertex] = position
        terms.append(
            DeltaTerm(
                coefficient=coefficient,
                fixed=key,
                order=tuple(order),
                pinned=tuple(pinned),
            ),
        )
    return DeltaPlan(pattern=pattern, terms=tuple(terms))


def execute_term(
    term: DeltaTerm, bitsets: Sequence[int], x: int, y: int,
) -> int:
    """Extensions of the term's pinned assignment (sides resolved to the
    concrete endpoints ``x``/``y``) to full homomorphisms — pure bitset
    backtracking, no dicts, no labels."""
    endpoints = (x, y)
    order, pinned = term.order, term.pinned
    depth = len(order)
    if depth == 0:
        return 1
    images = [0] * depth

    def count_from(position: int) -> int:
        refs = pinned[position]
        kind, value = refs[0]
        pool = bitsets[endpoints[value] if kind == _FIXED else images[value]]
        for kind, value in refs[1:]:
            pool &= bitsets[endpoints[value] if kind == _FIXED else images[value]]
        if position == depth - 1:
            return pool.bit_count()
        total = 0
        while pool:
            low_bit = pool & -pool
            pool ^= low_bit
            images[position] = low_bit.bit_length() - 1
            total += count_from(position + 1)
        return total

    return count_from(0)


def homs_touching_edge(
    plan: DeltaPlan, bitsets: Sequence[int], x: int, y: int,
) -> int:
    """``T(H, G, {x, y})``: homomorphisms of the (connected) pattern into
    the graph described by ``bitsets`` whose image uses edge ``{x, y}``
    (which must be present in ``bitsets``)."""
    return sum(
        term.coefficient * execute_term(term, bitsets, x, y)
        for term in plan.terms
    )


def batch_delta(
    plans: Sequence[DeltaPlan],
    bitsets: list[int],
    removed: Sequence[tuple[int, int]],
    added: Sequence[tuple[int, int]],
) -> list[int]:
    """Telescoped count changes for several pattern components at once.

    ``bitsets`` is the *old* version's neighbourhood bitsets extended to
    the new index space; it is mutated in place and ends as the new
    version's bitsets, so one replay of the intermediate graphs serves
    every plan.  Deletions are counted before the bit is cleared (the
    edge must be present for ``T``), insertions after the bit is set.
    """
    deltas = [0] * len(plans)
    for x, y in removed:
        for i, plan in enumerate(plans):
            deltas[i] -= homs_touching_edge(plan, bitsets, x, y)
        bitsets[x] &= ~(1 << y)
        bitsets[y] &= ~(1 << x)
    for x, y in added:
        bitsets[x] |= 1 << y
        bitsets[y] |= 1 << x
        for i, plan in enumerate(plans):
            deltas[i] += homs_touching_edge(plan, bitsets, x, y)
    return deltas


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def estimate_delta_cost(
    plans: Sequence[DeltaPlan], changed_edges: int, average_degree: float,
) -> float:
    """Rough work estimate for one batch through the delta path: per
    changed edge, each term explores about ``deg^free`` states."""
    degree = max(1.0, average_degree)
    per_edge = 0.0
    for plan in plans:
        for term in plan.terms:
            per_edge += degree ** len(term.order)
    return changed_edges * per_edge


def estimate_recompute_cost(count_plan, n: int, average_degree: float) -> float:
    """Rough work estimate for one full recompute through an engine plan.

    Order-of-magnitude only (the numpy matrix path gets a constant-factor
    discount for its C inner loops); the property suite guarantees both
    paths agree, so a misestimate costs time, never correctness.
    """
    degree = max(1.0, average_degree)
    size = max(1.0, float(n))
    kind = getattr(count_plan, "kind", "brute")
    if kind == "matrix":
        return size ** 3 / 64.0
    if kind == "dp":
        width = getattr(count_plan, "width", 1)
        nodes = getattr(count_plan, "node_count", 1)
        return nodes * size * degree ** width
    if kind == "brute":
        vertices = count_plan.pattern.num_vertices()
        return size * degree ** max(vertices - 1, 0)
    return 1.0

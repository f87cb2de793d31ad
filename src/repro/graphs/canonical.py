"""Canonical forms for small graphs.

A *canonical form* assigns to each graph a value that is equal for two graphs
iff they are isomorphic.  We use it to deduplicate enumerated graph families
(e.g. all graphs of treewidth ≤ k on ≤ n vertices for the
hom-indistinguishability oracle) and to give conjunctive queries stable
identities.

The implementation is individualisation–refinement: refine colours, then
branch on the smallest non-singleton colour class, taking the lexicographic
minimum of the resulting adjacency encodings.  Exponential in the worst case
but instantaneous on the ≤ 10-vertex graphs it is applied to.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.graphs.graph import Graph, Vertex


def _refine(
    graph: Graph,
    colours: dict[Vertex, Hashable],
) -> dict[Vertex, int]:
    """Stable colour refinement with deterministic integer colour names."""
    current = dict(colours)
    while True:
        signatures = {
            v: (
                current[v],
                tuple(sorted(repr(current[u]) for u in graph.neighbours(v))),
            )
            for v in graph.vertices()
        }
        order = sorted(set(signatures.values()), key=repr)
        rename = {signature: i for i, signature in enumerate(order)}
        updated = {v: rename[signatures[v]] for v in graph.vertices()}
        if len(set(updated.values())) == len(set(current.values())):
            return updated
        current = updated


def _encode(graph: Graph, ordering: list[Vertex]) -> tuple:
    """Upper-triangular adjacency bits under the given vertex ordering."""
    bits = []
    for i, u in enumerate(ordering):
        for v in ordering[i + 1:]:
            bits.append(1 if graph.has_edge(u, v) else 0)
    return tuple(bits)


def _canonical_encoding(
    graph: Graph,
    colours: dict[Vertex, Hashable],
) -> tuple:
    refined = _refine(graph, colours)
    classes: dict[int, list[Vertex]] = {}
    for v, colour in refined.items():
        classes.setdefault(colour, []).append(v)

    non_singletons = [c for c, members in classes.items() if len(members) > 1]
    if not non_singletons:
        ordering = sorted(graph.vertices(), key=lambda v: refined[v])
        return _encode(graph, ordering)

    target = min(non_singletons)
    best: tuple | None = None
    for vertex in classes[target]:
        branched = dict(refined)
        branched[vertex] = ("individualised", refined[vertex])
        encoding = _canonical_encoding(graph, branched)
        if best is None or encoding < best:
            best = encoding
    assert best is not None
    return best


def canonical_form(
    graph: Graph,
    colours: Mapping[Vertex, Hashable] | None = None,
) -> tuple:
    """A complete isomorphism invariant of ``graph`` (colour-aware).

    Two graphs have equal canonical forms iff they are isomorphic (by a
    colour-preserving isomorphism when ``colours`` is given).  The returned
    value also bakes in the multiset of initial colours so differently
    coloured graphs never collide.
    """
    if colours is None:
        seed: dict[Vertex, Hashable] = {v: 0 for v in graph.vertices()}
    else:
        seed = {v: ("c", colours[v]) for v in graph.vertices()}
    colour_histogram = tuple(sorted(repr(c) for c in seed.values()))
    return (
        graph.num_vertices(),
        colour_histogram,
        _canonical_encoding(graph, seed),
    )


def canonical_key(graph: Graph) -> tuple:
    """Shorthand for the uncoloured canonical form."""
    return canonical_form(graph)

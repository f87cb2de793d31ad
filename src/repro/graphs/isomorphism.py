"""Graph isomorphism, colour-preserving isomorphism, and automorphisms.

The instances in this library are small (query graphs, ℓ-copies, CFI gadgets
with a few dozen vertices), so a colour-refinement-guided backtracking search
is fast and — unlike hashing heuristics — exact.

Colour-preserving variants take an explicit vertex-colouring; they are the
workhorse behind query isomorphism (which must map free variables to free
variables, Definition 8) and behind ``Aut(H, X)`` (Definition 42).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Mapping

from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import IndexedGraph

Colouring = Mapping[Vertex, Hashable]


def _joint_refinement(
    first: Graph,
    second: Graph,
    first_colours: Colouring,
    second_colours: Colouring,
) -> tuple[dict[Vertex, int], dict[Vertex, int]] | None:
    """Stable colours of both graphs from one refinement of their disjoint
    union, seeded with the given colours; ``None`` if histograms differ.

    One partition of ``first ⊎ second`` gives the two sides comparable
    class ids, so they can pair up candidate images in the search.
    """
    # Imported lazily: repro.wl depends on this package.
    from repro.wl.refinement import colour_histogram, indexed_colour_partition

    indexed_first = first.to_indexed()
    indexed_second = second.to_indexed()
    joint_colours = [first_colours[v] for v in indexed_first.codec.labels]
    joint_colours += [second_colours[v] for v in indexed_second.codec.labels]
    # The numpy refinement tier takes integer seeds.
    seed_ids: dict[Hashable, int] = {}
    seeds = [seed_ids.setdefault(c, len(seed_ids)) for c in joint_colours]
    partition = indexed_colour_partition(
        IndexedGraph.disjoint_union(indexed_first, indexed_second), seeds,
    )
    boundary = indexed_first.n
    left = dict(zip(indexed_first.codec.labels, partition[:boundary]))
    right = dict(zip(indexed_second.codec.labels, partition[boundary:]))
    if colour_histogram(left) != colour_histogram(right):
        return None
    return left, right


def _search(
    first: Graph,
    second: Graph,
    left: dict[Vertex, int],
    right: dict[Vertex, int],
) -> Iterator[dict[Vertex, Vertex]]:
    """Backtracking over colour-compatible assignments, yielding isomorphisms."""
    by_colour: dict[int, list[Vertex]] = {}
    for v in second.vertices():
        by_colour.setdefault(right[v], []).append(v)

    # Order domain vertices: rarest colour class first for early pruning.
    order = sorted(
        first.vertices(),
        key=lambda v: (len(by_colour.get(left[v], ())), left[v], repr(v)),
    )
    mapping: dict[Vertex, Vertex] = {}
    used: set[Vertex] = set()

    def extend(index: int) -> Iterator[dict[Vertex, Vertex]]:
        if index == len(order):
            yield dict(mapping)
            return
        u = order[index]
        for candidate in by_colour.get(left[u], ()):
            if candidate in used:
                continue
            compatible = True
            for mapped in mapping:
                edge_left = first.has_edge(u, mapped)
                edge_right = second.has_edge(candidate, mapping[mapped])
                if edge_left != edge_right:
                    compatible = False
                    break
            if compatible:
                mapping[u] = candidate
                used.add(candidate)
                yield from extend(index + 1)
                used.remove(candidate)
                del mapping[u]

    yield from extend(0)


def isomorphisms_coloured(
    first: Graph,
    second: Graph,
    first_colours: Colouring,
    second_colours: Colouring,
) -> Iterator[dict[Vertex, Vertex]]:
    """All isomorphisms ``first → second`` preserving the given colours."""
    if first.num_vertices() != second.num_vertices():
        return
    if first.num_edges() != second.num_edges():
        return
    refined = _joint_refinement(first, second, first_colours, second_colours)
    if refined is None:
        return
    yield from _search(first, second, refined[0], refined[1])


def find_isomorphism(first: Graph, second: Graph) -> dict[Vertex, Vertex] | None:
    """An isomorphism ``first → second`` or ``None``."""
    uniform_first = {v: 0 for v in first.vertices()}
    uniform_second = {v: 0 for v in second.vertices()}
    for mapping in isomorphisms_coloured(first, second, uniform_first, uniform_second):
        return mapping
    return None


def are_isomorphic(first: Graph, second: Graph) -> bool:
    """Exact isomorphism test."""
    return find_isomorphism(first, second) is not None


def find_isomorphism_coloured(
    first: Graph,
    second: Graph,
    first_colours: Colouring,
    second_colours: Colouring,
) -> dict[Vertex, Vertex] | None:
    """A colour-preserving isomorphism or ``None``."""
    for mapping in isomorphisms_coloured(first, second, first_colours, second_colours):
        return mapping
    return None


def automorphisms(
    graph: Graph,
    colours: Colouring | None = None,
) -> Iterator[dict[Vertex, Vertex]]:
    """All (colour-preserving) automorphisms of ``graph``.

    With ``colours=None`` every vertex gets the same colour, giving the full
    automorphism group ``Aut(G)``.
    """
    if colours is None:
        colours = {v: 0 for v in graph.vertices()}
    yield from isomorphisms_coloured(graph, graph, colours, colours)


def automorphism_count(graph: Graph, colours: Colouring | None = None) -> int:
    """``|Aut(G)|`` (colour-preserving if colours are given)."""
    return sum(1 for _ in automorphisms(graph, colours))


def orbit_partition(graph: Graph) -> list[frozenset]:
    """Vertex orbits under ``Aut(G)``, as a partition of the vertex set."""
    parent: dict[Vertex, Vertex] = {v: v for v in graph.vertices()}

    def find(v: Vertex) -> Vertex:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for automorphism in automorphisms(graph):
        for source, target in automorphism.items():
            root_a, root_b = find(source), find(target)
            if root_a != root_b:
                parent[root_a] = root_b

    orbits: dict[Vertex, set[Vertex]] = {}
    for v in graph.vertices():
        orbits.setdefault(find(v), set()).add(v)
    return [frozenset(orbit) for orbit in orbits.values()]


def is_isomorphism(
    first: Graph,
    second: Graph,
    mapping: Mapping[Vertex, Vertex],
    predicate: Callable[[Vertex, Vertex], bool] | None = None,
) -> bool:
    """Verify that ``mapping`` is an isomorphism (and satisfies ``predicate``)."""
    vertices = first.vertices()
    if set(mapping) != set(vertices):
        return False
    images = set(mapping.values())
    if images != set(second.vertices()) or len(images) != len(vertices):
        return False
    if predicate is not None:
        if not all(predicate(v, mapping[v]) for v in vertices):
            return False
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if first.has_edge(u, v) != second.has_edge(mapping[u], mapping[v]):
                return False
    return True

"""Knowledge graphs (Section 1.3, remark (C)).

The paper notes that its analysis extends to *knowledge graphs*: directed
graphs with vertex labels and edge labels, parallel edges with distinct
labels allowed, self-loops forbidden.  This package implements that
extension: the data structure, homomorphisms, colour refinement, and
conjunctive queries with their width measures.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping

from repro.errors import GraphError

Vertex = Hashable
Label = Hashable
Triple = tuple  # (source, label, target)


class KnowledgeGraph:
    """A directed, vertex- and edge-labelled graph without self-loops.

    Edges are triples ``(source, label, target)``; multiple labels between
    the same ordered pair are allowed, duplicate triples are not stored
    twice.
    """

    __slots__ = ("_vertex_labels", "_out", "_in")

    def __init__(
        self,
        vertices: Mapping[Vertex, Label] | Iterable[Vertex] = (),
        triples: Iterable[Triple] = (),
    ) -> None:
        self._vertex_labels: dict[Vertex, Label] = {}
        self._out: dict[Vertex, set[tuple]] = {}
        self._in: dict[Vertex, set[tuple]] = {}
        if isinstance(vertices, Mapping):
            for vertex, label in vertices.items():
                self.add_vertex(vertex, label)
        else:
            for vertex in vertices:
                self.add_vertex(vertex)
        for source, label, target in triples:
            self.add_edge(source, label, target)

    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex, label: Label = None) -> None:
        if vertex in self._vertex_labels:
            if label is not None and self._vertex_labels[vertex] != label:
                raise GraphError(
                    f"vertex {vertex!r} already labelled "
                    f"{self._vertex_labels[vertex]!r}",
                )
            return
        self._vertex_labels[vertex] = label
        self._out[vertex] = set()
        self._in[vertex] = set()

    def add_edge(self, source: Vertex, label: Label, target: Vertex) -> None:
        if source == target:
            raise GraphError("knowledge graphs forbid self-loops")
        self.add_vertex(source)
        self.add_vertex(target)
        self._out[source].add((label, target))
        self._in[target].add((label, source))

    # ------------------------------------------------------------------
    def vertices(self) -> list[Vertex]:
        return list(self._vertex_labels)

    def vertex_label(self, vertex: Vertex) -> Label:
        return self._vertex_labels[vertex]

    def triples(self) -> list[Triple]:
        return [
            (source, label, target)
            for source, edges in self._out.items()
            for label, target in edges
        ]

    def has_edge(self, source: Vertex, label: Label, target: Vertex) -> bool:
        return source in self._out and (label, target) in self._out[source]

    def out_edges(self, vertex: Vertex) -> frozenset:
        """``{(label, target)}`` leaving ``vertex``."""
        return frozenset(self._out[vertex])

    def in_edges(self, vertex: Vertex) -> frozenset:
        """``{(label, source)}`` entering ``vertex``."""
        return frozenset(self._in[vertex])

    def num_vertices(self) -> int:
        return len(self._vertex_labels)

    def num_triples(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def neighbours_undirected(self, vertex: Vertex) -> frozenset:
        """Gaifman neighbourhood: adjacent in either direction, any label."""
        out_targets = {target for _, target in self._out[vertex]}
        in_sources = {source for _, source in self._in[vertex]}
        return frozenset(out_targets | in_sources)

    def gaifman_graph(self):
        """The underlying simple undirected graph — widths (treewidth,
        extension width) of KG queries are measured on it."""
        from repro.graphs.graph import Graph

        graph = Graph(vertices=self.vertices())
        for source, _, target in self.triples():
            graph.add_edge(source, target)
        return graph

    def is_connected(self) -> bool:
        return self.gaifman_graph().is_connected()

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(n={self.num_vertices()}, "
            f"triples={self.num_triples()})"
        )


def enumerate_kg_homomorphisms(
    pattern: KnowledgeGraph,
    target: KnowledgeGraph,
    fixed: Mapping[Vertex, Vertex] | None = None,
) -> Iterator[dict]:
    """All homomorphisms of knowledge graphs: label-preserving on vertices
    (``None`` pattern labels are wildcards) and triple-preserving."""
    fixed = dict(fixed or {})
    pattern_vertices = [v for v in pattern.vertices() if v not in fixed]
    assignment: dict = dict(fixed)

    def compatible(vertex: Vertex, image: Vertex) -> bool:
        wanted = pattern.vertex_label(vertex)
        if wanted is not None and target.vertex_label(image) != wanted:
            return False
        for label, out_target in pattern.out_edges(vertex):
            if out_target in assignment and not target.has_edge(
                image, label, assignment[out_target],
            ):
                return False
        for label, in_source in pattern.in_edges(vertex):
            if in_source in assignment and not target.has_edge(
                assignment[in_source], label, image,
            ):
                return False
        return True

    for vertex, image in fixed.items():
        del assignment[vertex]
        if not compatible(vertex, image):
            return
        assignment[vertex] = image

    def extend(index: int) -> Iterator[dict]:
        if index == len(pattern_vertices):
            yield dict(assignment)
            return
        vertex = pattern_vertices[index]
        for image in target.vertices():
            if compatible(vertex, image):
                assignment[vertex] = image
                yield from extend(index + 1)
                del assignment[vertex]

    yield from extend(0)


def count_kg_homomorphisms(
    pattern: KnowledgeGraph,
    target: KnowledgeGraph,
    fixed: Mapping[Vertex, Vertex] | None = None,
) -> int:
    return sum(1 for _ in enumerate_kg_homomorphisms(pattern, target, fixed))


def kg_colour_refinement(graph: KnowledgeGraph) -> dict[Vertex, int]:
    """1-WL for knowledge graphs: initial colour = vertex label, messages
    carry (direction, edge label, neighbour colour)."""
    palette: dict = {}

    def intern(signature) -> int:
        if signature not in palette:
            palette[signature] = len(palette)
        return palette[signature]

    colours = {
        v: intern(("label", repr(graph.vertex_label(v)))) for v in graph.vertices()
    }
    for _ in range(max(graph.num_vertices(), 1)):
        num_classes = len(set(colours.values()))
        colours = {
            v: intern(
                (
                    colours[v],
                    tuple(sorted(
                        ("out", repr(label), colours[target])
                        for label, target in graph.out_edges(v)
                    )),
                    tuple(sorted(
                        ("in", repr(label), colours[source])
                        for label, source in graph.in_edges(v)
                    )),
                ),
            )
            for v in graph.vertices()
        }
        if len(set(colours.values())) == num_classes:
            break
    return colours


def kg_wl_1_equivalent(first: KnowledgeGraph, second: KnowledgeGraph) -> bool:
    """KG 1-WL equivalence: refine the disjoint union once and compare
    the per-side colour histograms (one refinement gives both sides
    comparable colours)."""
    if first.num_vertices() != second.num_vertices():
        return False
    sides = (first, second)
    union = KnowledgeGraph(
        vertices={
            (side, v): graph.vertex_label(v)
            for side, graph in enumerate(sides)
            for v in graph.vertices()
        },
        triples=[
            ((side, source), label, (side, target))
            for side, graph in enumerate(sides)
            for source, label, target in graph.triples()
        ],
    )
    histograms: tuple[Counter, Counter] = (Counter(), Counter())
    for (side, _), colour in kg_colour_refinement(union).items():
        histograms[side][colour] += 1
    return histograms[0] == histograms[1]

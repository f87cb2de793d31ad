"""1-dimensional Weisfeiler-Leman: colour refinement.

The k = 1 case of the WL hierarchy (and of Definition 19, via homomorphism
counts from forests).  Colours are interned into a palette shared across
graphs so stable colourings of two graphs are directly comparable: two
graphs are 1-WL-equivalent iff their stable colour histograms agree.

Hot paths run in index space over
:class:`~repro.graphs.indexed.IndexedGraph`:

* :func:`indexed_colour_partition` is a worklist partition refinement
  (Hopcroft's "process the smaller half" discipline, counting-sort style
  splits) over index arrays — ``O((n + m) log n)`` splitter work instead
  of rebuilding sorted-signature dicts for up to ``n`` full rounds;
* :func:`wl_1_equivalent` refines the *disjoint union* of the two graphs
  once in index space and compares per-side class histograms, which is
  equivalent to the seed's lockstep shared-palette refinement;
* the shared-:class:`ColourInterner` path of :func:`colour_refinement`
  keeps the seed's round-by-round signature structure (its interned ids
  are part of the public contract) but iterates index arrays, not
  label-keyed dicts.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import IndexedGraph


class ColourInterner:
    """Assigns consecutive integers to colour signatures, shared across
    graphs so refinement histories can be compared."""

    def __init__(self) -> None:
        self._palette: dict[Hashable, int] = {}

    def intern(self, signature: Hashable) -> int:
        if signature not in self._palette:
            self._palette[signature] = len(self._palette)
        return self._palette[signature]

    def __len__(self) -> int:
        return len(self._palette)


def indexed_colour_partition(
    graph: IndexedGraph,
    initial: Sequence[int] | None = None,
    backend: str = "auto",
) -> list[int]:
    """The stable 1-WL partition of ``graph`` as a class-id array.

    ``initial`` (when given) seeds the partition: vertices with equal
    initial ids start in the same class.  Returned ids are dense and
    deterministic for a given graph *and backend* but are *not*
    comparable across graphs (or backends) — compare partitions, or
    histograms after refining a disjoint union.

    ``backend`` selects the evaluation tier: ``'auto'`` lets the kernel
    cost model pick (the vectorised counting-sort refinement of
    :mod:`repro.kernel.wl_numpy` for large-enough graphs when numpy is
    importable), ``'python'`` pins the worklist refinement below — the
    differential oracle — and ``'numpy'`` pins the vectorised pass.
    Both compute the same partition (the coarsest equitable refinement
    of the seed, which is unique).

    Worklist refinement: a queue of splitter classes; for each splitter,
    vertices are regrouped by their neighbour count into it (a
    counting-sort signature of one class at a time), and every class that
    splits re-enters the queue minus its largest part (Hopcroft).  Each
    edge is scanned O(log n) times overall.
    """
    n = graph.n
    if n == 0:
        return []

    from repro import kernel

    tier = kernel.resolve("wl", n + len(graph.targets), backend)
    if tier == "numpy":
        from repro.kernel import wl_numpy

        try:
            return wl_numpy.refine_partition(graph, initial=initial)
        except kernel.KernelUnsupported as exc:
            kernel.note_fallback("wl", exc.reason)
            if exc.partial is not None:
                # The vectorised rounds got partway (round budget hit on
                # a long-diameter graph); resume the worklist from the
                # intermediate partition — same unique stable result.
                initial = exc.partial
    adjacency = graph.adjacency_lists()

    colour = [0] * n
    members: dict[int, list[int]] = {}
    if initial is None:
        members[0] = list(range(n))
    else:
        renaming: dict[int, int] = {}
        for v in range(n):
            class_id = renaming.setdefault(initial[v], len(renaming))
            colour[v] = class_id
            members.setdefault(class_id, []).append(v)
    next_id = len(members)

    queue: deque[int] = deque(members)
    while queue:
        splitter = queue.popleft()
        splitter_members = members[splitter]

        counts: dict[int, int] = {}
        for u in splitter_members:
            for w in adjacency[u]:
                counts[w] = counts.get(w, 0) + 1

        touched: dict[int, dict[int, list[int]]] = {}
        for w, hits in counts.items():
            touched.setdefault(colour[w], {}).setdefault(hits, []).append(w)

        for class_id, by_count in touched.items():
            class_members = members[class_id]
            class_size = len(class_members)
            groups = list(by_count.values())
            counted = sum(len(group) for group in groups)
            if counted < class_size:
                groups.append([v for v in class_members if v not in counts])
            if len(groups) == 1:
                continue
            # The largest part keeps the old id and is never re-enqueued:
            # stability against it follows from stability against the old
            # class (just established) and the enqueued smaller parts.  A
            # still-queued old id simply re-processes with its shrunken
            # membership, which covers the same ground.
            groups.sort(key=len, reverse=True)
            members[class_id] = groups[0]
            for group in groups[1:]:
                members[next_id] = group
                for v in group:
                    colour[v] = next_id
                queue.append(next_id)
                next_id += 1
    return colour


def _normalised_initial(
    graph: IndexedGraph,
    initial: Mapping[Vertex, Hashable] | None,
) -> list[int] | None:
    if initial is None:
        return None
    renaming: dict[Hashable, int] = {}
    return [
        renaming.setdefault(initial[label], len(renaming))
        for label in graph.codec.labels
    ]


def _interned_refinement(
    graph: IndexedGraph,
    initial_signatures: list,
    interner: ColourInterner,
) -> tuple[list[int], int]:
    """The seed's synchronous interned refinement over index arrays —
    identical signatures and interner ids, no per-round label hashing.

    Returns the stable colours and the number of rounds that split a
    class (the final, stabilising round is not counted)."""
    n = graph.n
    adjacency = graph.adjacency_lists()
    colours = [interner.intern(signature) for signature in initial_signatures]
    rounds = 0
    for _ in range(max(n, 1)):
        num_classes = len(set(colours))
        colours = [
            interner.intern(
                (colours[v], tuple(sorted(colours[u] for u in adjacency[v]))),
            )
            for v in range(n)
        ]
        if len(set(colours)) == num_classes:
            break
        rounds += 1
    return colours, rounds


def colour_refinement(
    graph: Graph,
    initial: Mapping[Vertex, Hashable] | None = None,
    interner: ColourInterner | None = None,
) -> dict[Vertex, int]:
    """The stable 1-WL colouring of ``graph``.

    ``initial`` seeds the refinement (all-equal by default).  Passing a
    shared ``interner`` makes colour ids comparable across calls — this is
    how callers compare two graphs; without one, the worklist partition
    refinement computes the same partition directly.
    """
    indexed = graph.to_indexed()
    labels = indexed.codec.labels
    if interner is not None:
        if initial is None:
            signatures: list = ["uniform"] * indexed.n
        else:
            signatures = [("init", initial[label]) for label in labels]
        colours, _ = _interned_refinement(indexed, signatures, interner)
        return dict(zip(labels, colours))
    partition = indexed_colour_partition(
        indexed, _normalised_initial(indexed, initial),
    )
    return dict(zip(labels, partition))


def colour_histogram(colours: Mapping[Vertex, int]) -> dict[int, int]:
    """Multiset of colours, as a colour → multiplicity map."""
    histogram: dict[int, int] = {}
    for colour in colours.values():
        histogram[colour] = histogram.get(colour, 0) + 1
    return histogram


def wl_1_equivalent(first: Graph, second: Graph) -> bool:
    """1-WL-equivalence: equal stable colour histograms.

    Refines the disjoint union of the two graphs in index space — the
    stable partition of ``G ⊎ G'`` assigns comparable classes to both
    sides, so equality of the per-side class histograms is exactly the
    shared-palette lockstep criterion of the seed.  The classical positive
    example — ``2K3`` vs ``C6`` — is exercised in the tests and in
    experiment E3.
    """
    if first.num_vertices() != second.num_vertices():
        return False
    if first.num_edges() != second.num_edges():
        return False
    indexed_first = first.to_indexed()
    union = IndexedGraph.disjoint_union(indexed_first, second.to_indexed())
    partition = indexed_colour_partition(union)
    boundary = indexed_first.n
    histogram_a: dict[int, int] = {}
    for class_id in partition[:boundary]:
        histogram_a[class_id] = histogram_a.get(class_id, 0) + 1
    histogram_b: dict[int, int] = {}
    for class_id in partition[boundary:]:
        histogram_b[class_id] = histogram_b.get(class_id, 0) + 1
    return histogram_a == histogram_b


def refinement_rounds(graph: Graph) -> int:
    """Number of rounds until the 1-WL colouring stabilises.

    Round-synchronous by definition (the count *is* the number of
    synchronous rounds), so it runs the interned synchronous refinement
    over index arrays from the uniform colouring.
    """
    indexed = graph.to_indexed()
    _, rounds = _interned_refinement(
        indexed, ["uniform"] * indexed.n, ColourInterner(),
    )
    return rounds

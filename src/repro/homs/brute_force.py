"""Backtracking homomorphism enumeration and counting.

This is the reference implementation every optimised path is tested against.
It supports two extras that the paper's constructions need everywhere:

* ``fixed`` — a partial assignment that must be extended (used for
  answer-set semantics, Definition 8);
* ``allowed`` — per-pattern-vertex candidate restrictions (used for
  colour-prescribed and τ-restricted homomorphisms, Definitions 30/48).

The public API speaks labels; the search itself runs entirely in index
space over :class:`~repro.graphs.indexed.IndexedGraph`: candidate pools
are neighbourhood-bitset intersections (one big-int AND per assigned
neighbour instead of a ``frozenset`` intersection of rich labels), and
candidates are visited in ascending codec-index order — a total order that
cannot collide, unlike the ``repr``-sort the seed used.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.graphs.graph import Graph, Vertex

Assignment = dict[Vertex, Vertex]


def search_order(
    adjacency: Sequence[Sequence[int]], assigned: set[int],
) -> list[int]:
    """Order the unassigned vertices of a pattern, given by its index
    adjacency lists, for search: stay connected to the assigned region,
    preferring high-degree vertices (fail-first); ties break on the index
    itself (labels never enter the comparison)."""
    remaining = [v for v in range(len(adjacency)) if v not in assigned]
    frontier_scores = {
        v: sum(1 for u in adjacency[v] if u in assigned) for v in remaining
    }
    order: list[int] = []
    remaining_set = set(remaining)
    while remaining_set:
        vertex = max(
            remaining_set,
            key=lambda v: (frontier_scores[v], len(adjacency[v]), v),
        )
        order.append(vertex)
        remaining_set.remove(vertex)
        for u in adjacency[vertex]:
            if u in remaining_set:
                frontier_scores[u] += 1
    return order


class _Search:
    """A validated, index-space homomorphism search problem."""

    __slots__ = (
        "pattern",
        "target",
        "fixed",
        "order",
        "pinned",
        "pools",
    )

    def __init__(self, pattern, target, fixed, order, pinned, pools):
        self.pattern = pattern
        self.target = target
        self.fixed = fixed          # pattern index -> target index
        self.order = order          # search order of free pattern indices
        self.pinned = pinned        # per position: already-assigned neighbours
        self.pools = pools          # per position: static candidate bitset


def _prepare(
    pattern: Graph,
    target: Graph,
    fixed: Mapping[Vertex, Vertex] | None,
    allowed: Mapping[Vertex, frozenset] | None,
) -> _Search | None:
    """Encode the problem; ``None`` means "no homomorphisms exist"."""
    fixed = dict(fixed or {})
    for v, image in fixed.items():
        if not target.has_vertex(image):
            return None
        if allowed is not None and v in allowed and image not in allowed[v]:
            return None

    indexed_pattern = pattern.to_indexed()
    indexed_target = target.to_indexed()
    pattern_codec = indexed_pattern.codec
    target_codec = indexed_target.codec

    # encode() raises GraphError for fixed vertices outside the pattern —
    # the same contract the label-space search had.
    fixed_indices = {
        pattern_codec.encode(v): target_codec.encode(image)
        for v, image in fixed.items()
    }
    pattern_adjacency = indexed_pattern.adjacency_lists()
    target_bits = indexed_target.bitsets()
    for v, image in fixed_indices.items():
        for u in pattern_adjacency[v]:
            if u in fixed_indices and not (target_bits[image] >> fixed_indices[u]) & 1:
                return None

    full_pool = (1 << indexed_target.n) - 1
    order = search_order(pattern_adjacency, set(fixed_indices))
    pools = [full_pool] * len(order)
    if allowed is not None:
        for label, pool in allowed.items():
            v = pattern_codec.encode_or_none(label)
            if v is None:
                continue
            try:
                position = order.index(v)
            except ValueError:
                continue
            pools[position] = target_codec.encode_mask(pool)

    pinned: list[tuple[int, ...]] = []
    assigned = set(fixed_indices)
    for v in order:
        pinned.append(tuple(u for u in pattern_adjacency[v] if u in assigned))
        assigned.add(v)
    return _Search(
        indexed_pattern, indexed_target, fixed_indices, order, pinned, pools,
    )


def enumerate_homomorphisms(
    pattern: Graph,
    target: Graph,
    fixed: Mapping[Vertex, Vertex] | None = None,
    allowed: Mapping[Vertex, frozenset] | None = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism ``pattern → target`` extending ``fixed``.

    ``allowed[v]`` (when present) restricts the image of pattern vertex
    ``v``.  The ``fixed`` assignment is validated against pattern edges and
    ``allowed`` before the search starts.  Yielded assignments are
    label-space dicts; the search itself never touches labels.
    """
    search = _prepare(pattern, target, fixed, allowed)
    if search is None:
        return
    pattern_labels = search.pattern.codec.labels
    target_labels = search.target.codec.labels
    target_bits = search.target.bitsets()
    order, pinned, pools = search.order, search.pinned, search.pools
    depth = len(order)
    assignment: dict[int, int] = dict(search.fixed)

    def extend(position: int) -> Iterator[Assignment]:
        if position == depth:
            yield {
                pattern_labels[v]: target_labels[image]
                for v, image in assignment.items()
            }
            return
        vertex = order[position]
        pool = pools[position]
        for u in pinned[position]:
            pool &= target_bits[assignment[u]]
        while pool:
            low_bit = pool & -pool
            pool ^= low_bit
            assignment[vertex] = low_bit.bit_length() - 1
            yield from extend(position + 1)
        assignment.pop(vertex, None)

    yield from extend(0)


def count_homomorphisms_brute(
    pattern: Graph,
    target: Graph,
    fixed: Mapping[Vertex, Vertex] | None = None,
    allowed: Mapping[Vertex, frozenset] | None = None,
    backend: str = "auto",
) -> int:
    """``|Hom(pattern, target)|`` (restricted), by exhaustive backtracking.

    Pure index-space counting: no assignment dicts are materialised.

    ``backend`` picks the candidate-pool tier for the bottom two search
    levels: with ``'numpy'`` (or ``'auto'`` on large-enough targets) the
    innermost double loop collapses into one batch over packed
    ``uint64`` bitset rows — gather the candidate rows, AND the static
    pool of the last vertex, sum popcounts — while ``'python'`` keeps
    the big-int pools end to end (the oracle; counts agree exactly).
    """
    search = _prepare(pattern, target, fixed, allowed)
    if search is None:
        return 0
    target_bits = search.target.bitsets()
    order, pinned, pools = search.order, search.pinned, search.pools
    depth = len(order)
    images = [0] * search.pattern.n
    for v, image in search.fixed.items():
        images[v] = image

    from repro import kernel

    leaf_kernel = None
    if depth >= 2:
        tier = kernel.resolve("bitset", search.target.n, backend)
        if tier == "numpy":
            from repro.kernel import bitset_numpy

            leaf_kernel = bitset_numpy
            packed = bitset_numpy.pack_bitsets(search.target)
            n_target = search.target.n

    def count_leaf_pairs(pool: int, vertex: int) -> int:
        """The bottom two levels in one vectorised step: ``pool`` holds
        the candidates for ``vertex`` (= ``order[depth - 2]``)."""
        base_last = pools[depth - 1]
        vertex_pinned = False
        for u in pinned[depth - 1]:
            if u == vertex:
                vertex_pinned = True
            else:
                base_last &= target_bits[images[u]]
        if not vertex_pinned:
            return pool.bit_count() * base_last.bit_count()
        if not pool or not base_last:
            return 0
        if pool.bit_count() < 32:
            # Too few candidate rows to amortise the ndarray round-trip;
            # the big-int pools win (same arithmetic, oracle-identical).
            total = 0
            while pool:
                low_bit = pool & -pool
                pool ^= low_bit
                total += (
                    base_last & target_bits[low_bit.bit_length() - 1]
                ).bit_count()
            return total
        candidates = leaf_kernel.expand_mask(pool, n_target)
        return leaf_kernel.leaf_pair_count(
            candidates, packed, leaf_kernel.pack_mask(base_last, n_target),
        )

    def count_from(position: int) -> int:
        if position == depth:
            return 1
        pool = pools[position]
        for u in pinned[position]:
            pool &= target_bits[images[u]]
        if position == depth - 1:
            return pool.bit_count()
        vertex = order[position]
        if leaf_kernel is not None and position == depth - 2:
            return count_leaf_pairs(pool, vertex)
        total = 0
        while pool:
            low_bit = pool & -pool
            pool ^= low_bit
            images[vertex] = low_bit.bit_length() - 1
            total += count_from(position + 1)
        return total

    return count_from(0)


def exists_homomorphism(
    pattern: Graph,
    target: Graph,
    fixed: Mapping[Vertex, Vertex] | None = None,
    allowed: Mapping[Vertex, frozenset] | None = None,
) -> bool:
    """Does any homomorphism extending ``fixed`` exist?"""
    search = _prepare(pattern, target, fixed, allowed)
    if search is None:
        return False
    target_bits = search.target.bitsets()
    order, pinned, pools = search.order, search.pinned, search.pools
    depth = len(order)
    images = [0] * search.pattern.n
    for v, image in search.fixed.items():
        images[v] = image

    def search_from(position: int) -> bool:
        if position == depth:
            return True
        pool = pools[position]
        for u in pinned[position]:
            pool &= target_bits[images[u]]
        vertex = order[position]
        while pool:
            low_bit = pool & -pool
            pool ^= low_bit
            images[vertex] = low_bit.bit_length() - 1
            if search_from(position + 1):
                return True
        return False

    return search_from(0)

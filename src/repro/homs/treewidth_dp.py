"""Homomorphism counting by dynamic programming over a tree decomposition
of the pattern.

Running time ``O(#bags · |V(G)|^{tw(H)+1})`` — the classical algorithm that
makes Definition 19 usable: homomorphism counts from low-treewidth patterns
are polynomial-time computable, which is exactly why k-WL-equivalence is
decidable via them.

Supports the same ``allowed`` restriction as the brute-force counter, so
colour-prescribed homomorphism counts (Definitions 30/48) inherit the
treewidth-parameterised running time.

This module is the library's one treewidth DP.  A
:class:`~repro.treewidth.decomposition.TreeDecomposition` is lowered once
to a flat *instruction tape* (:func:`compile_tape`), and :func:`run_tape`
evaluates the tape against a target on one of two tiers:

* the pure-Python loop below — DP tables keyed by tuples of *target
  indices* (the :class:`~repro.graphs.indexed.IndexedGraph` encoding),
  candidate images from neighbourhood-bitset intersections — the exact
  oracle;
* the vectorised :mod:`repro.kernel.dp_numpy` loop over packed-code
  ndarray tables, picked by the kernel cost model, which falls back to the
  pure loop whenever int64 could overflow.

The tape is variable elimination over the decomposition: each bag builds
its table from its children's tables, which are over their *separators*
(the vertices a child shares with its bag).  A child joins as soon as the
bag built so far covers its separator, so no branch re-introduces the
vertices of the bag above it.

A tape may also check *relations*: 0/1 tables over tuples of pattern
vertices, given per run (:class:`repro.engine.plans.AnswerPlan` checks one
table per existential component this way).  INTRODUCE of ``v`` checks
every relation whose scope contains ``v`` and lies inside the bag built
so far.  Tables are 0/1, so checking one at several INTRODUCEs is still
exact; a scope that is a clique of the decomposed graph lies in some bag,
and the INTRODUCE that completes it there (or in a child it came from)
checks it.  Only the pure loop checks relations.

:func:`count_homomorphisms_dp` compiles the tape (memoised on the
decomposition) and runs it; :class:`repro.engine.plans.DPPlan` keeps a
compiled tape in the engine's plan cache and runs it through the same
:func:`run_tape`.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.exact import optimal_tree_decomposition

# Instructions operate on a stack of DP tables in postorder (reverse
# Polish), so execution is a single loop with no tree traversal.  All
# pattern-side index arithmetic (bag orders, positions) is resolved at
# compile time.  A table's key lists the images of its bag in pattern
# codec order — a total order, so labels that share a ``repr`` cannot
# collide.
LEAF = 0
INTRODUCE = 1  # (INTRODUCE, vertex label, position, neighbour positions[, checks])
FORGET = 2  # (FORGET, position)
# (JOIN,) multiplies two tables over the same bag; (JOIN, positions) joins
# the table on top, over a child's separator, into the bag table below it:
# ``positions`` are the separator's positions in that bag.
JOIN = 3


def count_homomorphisms_dp(
    pattern: Graph,
    target: Graph,
    allowed: Mapping[Vertex, frozenset] | None = None,
    decomposition: TreeDecomposition | None = None,
    backend: str = "auto",
) -> int:
    """``|Hom(pattern, target)|`` via tree-decomposition DP.

    ``decomposition`` can supply a pre-computed tree decomposition of
    ``pattern`` (useful when counting against many targets, e.g. the WL
    indistinguishability oracle); otherwise an optimal one is computed.

    ``backend`` picks the evaluation tier as in :func:`run_tape`; every
    tier returns the same exact count.
    """
    if pattern.num_vertices() == 0:
        return 1
    if target.num_vertices() == 0:
        return 0
    if decomposition is None:
        decomposition = prepared_pattern(pattern)
    # Memoise the tape on the decomposition: repeated calls with a
    # prepared_pattern() decomposition (the hom-profile access shape) pay
    # the pattern-side compile once, like DPPlan does.
    cache = getattr(decomposition, "_tape_cache", None)
    if cache is None or cache[0] is not pattern:
        cache = (pattern, compile_tape(pattern, decomposition))
        decomposition._tape_cache = cache
    return run_tape(cache[1], decomposition.width, target, allowed, backend)


def compile_tape(
    pattern: Graph,
    decomposition: TreeDecomposition,
    relations: Sequence[tuple] = (),
) -> list[tuple]:
    """Lower the tree decomposition ``decomposition`` of ``pattern`` to
    the instruction tape.

    Bags nested in a neighbour are merged into it, and the tree is rooted
    at the first bag left.  Each bag starts from the table of its child
    with the largest separator (LEAF if it has no child), introduces its
    missing vertices, those with the most neighbours already in the bag
    first, JOINs each other child as soon as the bag built so far covers
    that child's separator, and finally FORGETs the vertices its parent's
    bag lacks (all of them at the root).

    ``relations`` lists the scopes (tuples of pattern vertices) of the
    relations the tape checks.  An INTRODUCE that checks some carries a
    fifth field: one ``(relation index, slot of the vertex in the scope,
    positions of the rest of the scope)`` triple per relation.
    """
    indexed_pattern = pattern.to_indexed()
    encode = indexed_pattern.codec.encode
    labels = indexed_pattern.codec.labels
    adjacency = [set(row) for row in indexed_pattern.adjacency_lists()]
    scopes = [tuple(encode(v) for v in scope) for scope in relations]
    bags, parents, children = _rooted_bags(decomposition, encode)

    def steps(node: int) -> list:
        """The bag's instructions; a child's number stands for the
        child's whole tape, which leaves its table on the stack."""
        bag = bags[node]
        above = frozenset() if parents[node] is None else bags[parents[node]]
        pending = list(children[node])
        out: list = []
        order: list[int] = []  # the bag built so far, in codec order
        if pending:
            start = max(pending, key=lambda child: len(bags[child] & bag))
            pending.remove(start)
            out.append(start)
            order = sorted(bags[start] & bag)
        else:
            out.append((LEAF,))

        def join_covered() -> None:
            for child in list(pending):
                separator = sorted(bags[child] & bag)
                if all(u in order for u in separator):
                    pending.remove(child)
                    out.append(child)
                    out.append(
                        (JOIN,) if separator == order
                        else (JOIN, tuple(order.index(u) for u in separator)),
                    )

        join_covered()
        missing = set(bag).difference(order)
        while missing:
            vertex = min(
                missing,
                key=lambda v: (-len(adjacency[v].intersection(order)), v),
            )
            missing.remove(vertex)
            neighbours = tuple(
                position for position, u in enumerate(order)
                if u in adjacency[vertex]
            )
            checks = tuple(
                (
                    number,
                    scope.index(vertex),
                    tuple(order.index(u) for u in scope if u != vertex),
                )
                for number, scope in enumerate(scopes)
                if vertex in scope
                and all(u in order for u in scope if u != vertex)
            )
            insort(order, vertex)
            # The label rides along for ``allowed`` lookups at execute
            # time; all positional arithmetic is already index-space.
            instruction = (
                INTRODUCE, labels[vertex], order.index(vertex), neighbours,
            )
            out.append(instruction + (checks,) if checks else instruction)
            join_covered()
        for vertex in sorted(bag - above, reverse=True):
            out.append((FORGET, order.index(vertex)))
            order.remove(vertex)
        return out

    # Splice the children's tapes in depth first, iteratively (stack-safe
    # on deep decompositions).
    instructions: list[tuple] = []
    stack = [iter(steps(min(bags)))]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif isinstance(item, tuple):
            instructions.append(item)
        else:
            stack.append(iter(steps(item)))
    return instructions


def _rooted_bags(decomposition: TreeDecomposition, encode) -> tuple:
    """``(bags, parents, children)`` keyed by bag number in decomposition
    order, bags in codec indices: each bag nested in a neighbour is merged
    into it, and the tree is rooted at the first bag left (its parent is
    ``None``)."""
    ids = list(decomposition.bags)
    number = {bag_id: i for i, bag_id in enumerate(ids)}
    bags = {
        i: frozenset(encode(v) for v in decomposition.bags[bag_id])
        for i, bag_id in enumerate(ids)
    }
    adjacent = {
        number[bag_id]: {
            number[other] for other in decomposition.tree.neighbours(bag_id)
        }
        for bag_id in ids
    }
    # One pass suffices: bags never change, and by the running
    # intersection property a merge nests no bag in a new neighbour.
    for node in range(len(ids)):
        into = min(
            (other for other in adjacent[node] if bags[node] <= bags[other]),
            default=None,
        )
        if into is None:
            continue
        for other in adjacent.pop(node) - {into}:
            adjacent[other].discard(node)
            adjacent[other].add(into)
            adjacent[into].add(other)
        adjacent[into].discard(node)
        del bags[node]
    root = min(bags)
    parents: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {node: [] for node in bags}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for other in sorted(adjacent[node]):
            if other not in parents:
                parents[other] = node
                children[node].append(other)
                frontier.append(other)
    return bags, parents, children


def run_tape(
    instructions: Sequence[tuple],
    width: int,
    target: Graph,
    allowed: Mapping[Vertex, frozenset] | None = None,
    backend: str = "auto",
    relations: Sequence[Mapping[tuple, int]] = (),
) -> int:
    """Evaluate a compiled tape of decomposition width ``width`` against
    ``target``.

    ``backend`` picks the evaluation tier: ``'auto'`` applies the kernel
    cost model (numpy for large-enough targets when importable),
    ``'python'`` pins the pure tape (the oracle), ``'numpy'`` pins the
    vectorised tape.  A numpy run that could leave int64 falls back to the
    pure tape — results are exact on every tier.

    ``relations[i]`` is the table of the tape's ``i``-th relation (see
    :func:`compile_tape`), indexed like neighbourhood bitsets: it maps
    the images (target indices) of all but the last vertex of its scope,
    in scope order, to the bitset of images it allows the last vertex.
    Absent keys allow nothing.  A tape given relations runs the pure
    loop on every tier: the vectorised tape has no relation check.
    """
    if target.num_vertices() == 0:
        return 0
    indexed_target = target.to_indexed()
    if allowed is None:
        masks = None
    else:
        encode_mask = indexed_target.codec.encode_mask
        masks = {vertex: encode_mask(pool) for vertex, pool in allowed.items()}
    if relations:
        return _run_python(instructions, indexed_target, masks, relations)

    # Imported lazily so that importing the counting layers (and the
    # service on top of them) does not load the kernel package.
    from repro import kernel

    if kernel.resolve("dp", indexed_target.n, backend) == "numpy":
        from repro.kernel import dp_numpy

        try:
            return dp_numpy.execute_tape(
                instructions, indexed_target, width + 1, allowed_masks=masks,
            )
        except kernel.KernelUnsupported as exc:
            kernel.note_fallback("dp", exc.reason)
    return _run_python(instructions, indexed_target, masks, relations)


def _run_python(instructions, indexed_target, masks, relations=()) -> int:
    """The pure-Python tape loop — the differential oracle.  ``masks``
    maps a pattern vertex label to its encoded candidate bitset.

    A relation check narrows the candidate pool like a neighbour does:
    the relation, keyed by the images of the rest of its scope, gives
    the bitset of images it allows the introduced vertex.  A check on a
    vertex other than the scope's last re-indexes the relation once."""
    target_bits = indexed_target.bitsets()
    full_pool = (1 << indexed_target.n) - 1
    stack: list[dict[tuple, int]] = []
    slot_indexes: dict[tuple[int, int], Mapping[tuple, int]] = {}

    def slot_index(number: int, slot: int, arity: int) -> Mapping[tuple, int]:
        if slot == arity - 1:
            return relations[number]
        index = slot_indexes.get((number, slot))
        if index is None:
            index = {}
            for rest, pool in relations[number].items():
                while pool:
                    low_bit = pool & -pool
                    pool ^= low_bit
                    row = rest + (low_bit.bit_length() - 1,)
                    key = row[:slot] + row[slot + 1:]
                    index[key] = index.get(key, 0) | (1 << row[slot])
            slot_indexes[(number, slot)] = index
        return index

    for instruction in instructions:
        op = instruction[0]
        if op == LEAF:
            stack.append({(): 1})
        elif op == INTRODUCE:
            vertex, position, neighbour_positions = instruction[1:4]
            checks = [
                (slot_index(number, slot, len(positions) + 1), positions)
                for number, slot, positions in (
                    instruction[4] if len(instruction) > 4 else ()
                )
            ]
            base_pool = (
                full_pool if masks is None else masks.get(vertex, full_pool)
            )
            table: dict[tuple, int] = {}
            for key, count in stack.pop().items():
                pool = base_pool
                for pos in neighbour_positions:
                    pool &= target_bits[key[pos]]
                if checks:
                    for index, positions in checks:
                        pool &= index.get(tuple([key[p] for p in positions]), 0)
                while pool:
                    low_bit = pool & -pool
                    pool ^= low_bit
                    image = low_bit.bit_length() - 1
                    new_key = key[:position] + (image,) + key[position:]
                    table[new_key] = table.get(new_key, 0) + count
            stack.append(table)
        elif op == FORGET:
            drop = instruction[1]
            table = {}
            for key, count in stack.pop().items():
                new_key = key[:drop] + key[drop + 1:]
                table[new_key] = table.get(new_key, 0) + count
            stack.append(table)
        elif len(instruction) == 1:  # JOIN of two tables over one bag
            left = stack.pop()
            right = stack.pop()
            if len(left) > len(right):
                left, right = right, left
            table = {}
            for key, count in left.items():
                other = right.get(key)
                if other:
                    table[key] = count * other
            stack.append(table)
        else:  # JOIN of a child's separator table into the bag table
            child = stack.pop()
            positions = instruction[1]
            if len(positions) == 1:
                child = {key[0]: count for key, count in child.items()}
                project = itemgetter(positions[0])
            elif positions:
                project = itemgetter(*positions)
            else:
                project = _empty_key
            table = {}
            for key, count in stack.pop().items():
                other = child.get(project(key))
                if other:
                    table[key] = count * other
            stack.append(table)

    (root_table,) = stack
    return root_table.get((), 0)


def _empty_key(key: tuple) -> tuple:
    return ()


def prepared_pattern(pattern: Graph) -> TreeDecomposition:
    """An optimal tree decomposition of ``pattern`` for repeated counting
    calls: :func:`count_homomorphisms_dp` memoises its tape on it."""
    return optimal_tree_decomposition(pattern)

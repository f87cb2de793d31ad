"""Homomorphism counting by dynamic programming over a nice tree
decomposition of the pattern.

Running time ``O(#nodes · |V(G)|^{tw(H)+1})`` — the classical algorithm that
makes Definition 19 usable: homomorphism counts from low-treewidth patterns
are polynomial-time computable, which is exactly why k-WL-equivalence is
decidable via them.

Supports the same ``allowed`` restriction as the brute-force counter, so
colour-prescribed homomorphism counts (Definitions 30/48) inherit the
treewidth-parameterised running time.

This module is the library's one treewidth DP.  A decomposition is lowered
once to a flat *instruction tape* (:func:`compile_tape`), and
:func:`run_tape` evaluates the tape against a target on one of two tiers:

* the pure-Python loop below — DP tables keyed by tuples of *target
  indices* (the :class:`~repro.graphs.indexed.IndexedGraph` encoding),
  candidate images from neighbourhood-bitset intersections — the exact
  oracle;
* the vectorised :mod:`repro.kernel.dp_numpy` loop over packed-code
  ndarray tables, picked by the kernel cost model, which falls back to the
  pure loop whenever int64 could overflow.

A tape may also check *relations*: 0/1 tables over tuples of pattern
vertices, given per run (:class:`repro.engine.plans.AnswerPlan` checks one
table per existential component this way).  INTRODUCE of ``v`` checks
every relation whose scope contains ``v`` and lies inside the new bag.
Tables are 0/1, so checking one at several INTRODUCEs is still exact; a
scope that is a clique of the decomposed graph lies in some bag, and the
last of its vertices introduced below that bag checks it.  Only the pure
loop checks relations.

:func:`count_homomorphisms_dp` compiles the tape (memoised on the
decomposition root) and runs it; :class:`repro.engine.plans.DPPlan` keeps a
compiled tape in the engine's plan cache and runs it through the same
:func:`run_tape`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.treewidth.exact import optimal_tree_decomposition
from repro.treewidth.nice import NiceNode, nice_tree_decomposition

# One instruction per nice-tree node, in postorder: instructions operate on
# a stack of DP tables (postorder ≡ reverse Polish), so execution is a
# single loop with no tree traversal.  All pattern-side index arithmetic
# (bag orders, positions) is resolved at compile time.  Bags are ordered by
# pattern codec index — a total order, so labels that share a ``repr``
# cannot collide.
LEAF = 0
INTRODUCE = 1  # (INTRODUCE, vertex label, position, neighbour positions[, checks])
FORGET = 2  # (FORGET, position)
JOIN = 3


def count_homomorphisms_dp(
    pattern: Graph,
    target: Graph,
    allowed: Mapping[Vertex, frozenset] | None = None,
    root: NiceNode | None = None,
    backend: str = "auto",
) -> int:
    """``|Hom(pattern, target)|`` via tree-decomposition DP.

    ``root`` can supply a pre-computed nice decomposition of ``pattern``
    (useful when counting against many targets, e.g. the WL
    indistinguishability oracle); otherwise an optimal one is computed.

    ``backend`` picks the evaluation tier as in :func:`run_tape`; every
    tier returns the same exact count.
    """
    if pattern.num_vertices() == 0:
        return 1
    if target.num_vertices() == 0:
        return 0
    if root is None:
        root = prepared_pattern(pattern)
    # Memoise the tape on the decomposition root: repeated calls with a
    # prepared_pattern() root (the hom-profile access shape) pay the
    # pattern-side compile once, like DPPlan does.
    cache = getattr(root, "_tape_cache", None)
    if cache is None or cache[0] is not pattern:
        cache = (pattern, compile_tape(pattern, root), root.width())
        root._tape_cache = cache
    _, instructions, width = cache
    return run_tape(instructions, width, target, allowed, backend)


def compile_tape(
    pattern: Graph, root: NiceNode, relations: Sequence[tuple] = (),
) -> list[tuple]:
    """Lower the nice decomposition ``root`` of ``pattern`` to the
    instruction tape (one instruction per node, postorder).

    ``relations`` lists the scopes (tuples of pattern vertices) of the
    relations the tape checks.  An INTRODUCE that checks some carries a
    fifth field: one ``(relation index, slot of the vertex in the scope,
    child-bag positions of the rest of the scope)`` triple per relation.
    """
    indexed_pattern = pattern.to_indexed()
    encode = indexed_pattern.codec.encode
    pattern_adjacency = indexed_pattern.adjacency_lists()
    scopes = [tuple(encode(v) for v in scope) for scope in relations]

    def bag_order(bag: frozenset) -> list[int]:
        return sorted(encode(v) for v in bag)

    instructions: list[tuple] = []
    for node in root.iter_postorder():
        if node.kind == "leaf":
            instructions.append((LEAF,))
        elif node.kind == "introduce":
            child_order = bag_order(node.children[0].bag)
            vertex_index = encode(node.vertex)
            position = bag_order(node.bag).index(vertex_index)
            child_bag_indices = set(child_order)
            neighbour_positions = tuple(
                child_order.index(u)
                for u in pattern_adjacency[vertex_index]
                if u in child_bag_indices
            )
            # The label rides along for ``allowed`` lookups at execute
            # time; all positional arithmetic is already index-space.
            instruction = (INTRODUCE, node.vertex, position, neighbour_positions)
            checks = tuple(
                (
                    number,
                    scope.index(vertex_index),
                    tuple(child_order.index(u) for u in scope if u != vertex_index),
                )
                for number, scope in enumerate(scopes)
                if vertex_index in scope
                and all(u in child_bag_indices for u in scope if u != vertex_index)
            )
            instructions.append(instruction + (checks,) if checks else instruction)
        elif node.kind == "forget":
            drop = bag_order(node.children[0].bag).index(encode(node.vertex))
            instructions.append((FORGET, drop))
        elif node.kind == "join":
            instructions.append((JOIN,))
        else:  # pragma: no cover - validate_nice rejects unknown kinds
            raise AssertionError(f"unknown node kind {node.kind!r}")
    return instructions


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
        else:  # JOIN
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

    (root_table,) = stack
    return root_table.get((), 0)


def prepared_pattern(pattern: Graph) -> NiceNode:
    """Pre-compute a nice decomposition for repeated counting calls."""
    return nice_tree_decomposition(optimal_tree_decomposition(pattern))

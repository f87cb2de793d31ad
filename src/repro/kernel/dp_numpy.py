"""Vectorised evaluation of the treewidth-DP instruction tape.

The pure-Python loop of :func:`repro.homs.treewidth_dp.run_tape` walks
the tape with dict tables ``{bag-assignment tuple: count}``; this module
evaluates the *same tape* (opcodes from :mod:`repro.homs.treewidth_dp`)
with ndarray tables.  A table is a pair of parallel int64 arrays —
``codes`` (each bag assignment packed into one integer, base ``n`` mixed
radix, kept unique) and ``counts`` — so the four instructions become
batched array steps:

* LEAF — the empty assignment: ``([0], [1])``;
* INTRODUCE — digit-extract the already-assigned neighbour images from
  every code at once, pick the *lowest-degree* pinned neighbour per row
  as the pivot, gather its CSR adjacency slice as the candidate images
  (one ``repeat``/``arange`` gather, proportional to output size — no
  dense ``n``-wide pools), filter the remaining pinned neighbours and
  any ``allowed`` mask with packed-bitset bit tests
  (:mod:`repro.kernel.bitset_numpy`), then splice the image digit into
  every code with one radix shift;
* FORGET — a radix contraction deletes the digit, then a
  sort + ``add.reduceat`` group-by merges collapsed assignments;
* JOIN — ``intersect1d`` on the two unique code arrays, counts multiply;
  a separator JOIN digit-extracts each bag code's separator images into
  a child code and looks it up in the child's sorted codes.

**Exact big-int safety.**  Counts are exact integers; int64 is a speed
representation, not a semantics change.  Before any step that could
exceed int64 — code packing (``n**(width+1)``), FORGET sums, JOIN
products — an a-priori bound is checked with Python big-ints and
:class:`~repro.kernel.backend.KernelUnsupported` is raised, sending the
execution back to the pure-Python tape (counted in
``repro_kernel_fallback_total{layer="dp",reason="overflow"}``).  The
bounds are conservative: a fallback may be unnecessary, but a silent
wraparound is impossible.
"""

from __future__ import annotations

from repro.homs.treewidth_dp import FORGET, INTRODUCE, LEAF
from repro.kernel.backend import KernelUnsupported, numpy_or_none
from repro.kernel.bitset_numpy import expand_mask, pack_bitsets, pack_mask

# Packed codes and counts both live in int64 with one bit of headroom.
_INT64_LIMIT = 1 << 62


def packable(n: int, max_bag: int) -> bool:
    """Can every bag assignment over an ``n``-vertex target pack into
    int64?  Needs ``n**max_bag < 2**62`` (checked in exact Python ints)."""
    if n <= 1:
        return True
    return n ** max_bag < _INT64_LIMIT


class _Tables:
    """Execution state shared by the instruction handlers."""

    __slots__ = (
        "numpy", "n", "radix", "offsets", "targets", "degrees",
        "packed", "graph", "empty",
    )

    def __init__(self, numpy, indexed_target, max_bag: int) -> None:
        self.numpy = numpy
        n = indexed_target.n
        self.n = n
        self.graph = indexed_target
        self.radix = [1] * (max_bag + 1)
        for exponent in range(1, max_bag + 1):
            self.radix[exponent] = self.radix[exponent - 1] * n
        self.offsets = numpy.frombuffer(indexed_target.offsets, dtype=numpy.int64)
        self.targets = numpy.frombuffer(indexed_target.targets, dtype=numpy.int64)
        self.degrees = self.offsets[1:] - self.offsets[:-1]
        self.packed = None  # lazy: only pinned-filtering needs bitsets
        self.empty = (
            numpy.empty(0, dtype=numpy.int64),
            numpy.empty(0, dtype=numpy.int64),
        )

    def packed_bitsets(self):
        if self.packed is None:
            self.packed = pack_bitsets(self.graph)
        return self.packed

    def bit_test(self, rows, images, word, bit):
        """``1`` where image is in the bitset row — a vectorised
        ``(bitsets[row] >> image) & 1``."""
        packed = self.packed_bitsets()
        return (packed[rows, word] >> bit) & self.numpy.uint64(1)


def _introduce(state: _Tables, table, position, neighbour_positions, mask):
    numpy = state.numpy
    codes, counts = table
    rows = len(codes)
    if rows == 0:
        return state.empty
    n, radix = state.n, state.radix

    if not neighbour_positions:
        # Unconstrained introduce: every (row, candidate) pair.
        candidates = (
            numpy.arange(n, dtype=numpy.int64)
            if mask is None
            else expand_mask(mask, n)
        )
        per_row = len(candidates)
        if per_row == 0:
            return state.empty
        row_index = numpy.repeat(
            numpy.arange(rows, dtype=numpy.int64), per_row,
        )
        images = numpy.tile(candidates, rows)
    else:
        pinned = [
            (codes // radix[p]) % n if radix[p] > 1 else codes % n
            for p in neighbour_positions
        ]
        if len(pinned) == 1:
            pivot = pinned[0]
        else:
            # Per-row lowest-degree pinned image: the smallest candidate
            # list to gather, the rest are O(1) bit tests.
            stacked = numpy.stack(pinned)
            choice = numpy.argmin(state.degrees[stacked], axis=0)
            pivot = stacked[choice, numpy.arange(rows)]
        lengths = state.degrees[pivot]
        total = int(lengths.sum())
        if total == 0:
            return state.empty
        row_index = numpy.repeat(
            numpy.arange(rows, dtype=numpy.int64), lengths,
        )
        run_starts = numpy.cumsum(lengths) - lengths
        positions = (
            numpy.repeat(state.offsets[pivot] - run_starts, lengths)
            + numpy.arange(total, dtype=numpy.int64)
        )
        images = state.targets[positions]
        if len(pinned) > 1 or mask is not None:
            word = images >> 6
            bit = (images & 63).astype(numpy.uint64)
            keep = numpy.ones(total, dtype=bool)
            if len(pinned) > 1:
                for values in pinned:
                    keep &= state.bit_test(
                        values[row_index], images, word, bit,
                    ).astype(bool)
            if mask is not None:
                mask_row = pack_mask(mask, n)
                keep &= (
                    (mask_row[word] >> bit) & numpy.uint64(1)
                ).astype(bool)
            row_index = row_index[keep]
            images = images[keep]
        if len(images) == 0:
            return state.empty

    base = codes[row_index]
    low = base % radix[position] if radix[position] > 1 else 0
    high = base // radix[position]
    new_codes = low + images * radix[position] + high * radix[position + 1]
    return new_codes, counts[row_index]


def _forget(state: _Tables, table, drop):
    numpy = state.numpy
    codes, counts = table
    if len(codes) == 0:
        return state.empty
    # Group sums stay exact: every group sum is bounded by the total,
    # checked against int64 headroom with Python ints.
    if int(counts.max()) * len(counts) >= _INT64_LIMIT:
        raise KernelUnsupported("overflow", "FORGET merge could exceed int64")
    radix = state.radix
    merged = (codes % radix[drop] if radix[drop] > 1 else 0) + (
        codes // radix[drop + 1]
    ) * radix[drop]
    order = numpy.argsort(merged, kind="stable")
    merged = merged[order]
    boundaries = numpy.flatnonzero(
        numpy.r_[True, merged[1:] != merged[:-1]],
    )
    return merged[boundaries], numpy.add.reduceat(counts[order], boundaries)


def _join(state: _Tables, left, right):
    numpy = state.numpy
    left_codes, left_counts = left
    right_codes, right_counts = right
    if len(left_codes) == 0 or len(right_codes) == 0:
        return state.empty
    common, left_index, right_index = numpy.intersect1d(
        left_codes, right_codes, assume_unique=True, return_indices=True,
    )
    if len(common) == 0:
        return state.empty
    left_hit = left_counts[left_index]
    right_hit = right_counts[right_index]
    if int(left_hit.max()) * int(right_hit.max()) >= _INT64_LIMIT:
        raise KernelUnsupported("overflow", "JOIN product could exceed int64")
    return common, left_hit * right_hit


def _join_on(state: _Tables, table, child, positions):
    """Join ``child``, a table over a separator, into the bag ``table``:
    ``positions`` are the separator's positions in the bag."""
    numpy = state.numpy
    codes, counts = table
    child_codes, child_counts = child
    if len(codes) == 0 or len(child_codes) == 0:
        return state.empty
    n, radix = state.n, state.radix
    projected = numpy.zeros(len(codes), dtype=numpy.int64)
    for slot, position in enumerate(positions):
        digits = (codes // radix[position]) % n
        projected += digits * radix[slot]
    order = numpy.argsort(child_codes, kind="stable")
    sorted_codes = child_codes[order]
    found = numpy.minimum(
        numpy.searchsorted(sorted_codes, projected), len(sorted_codes) - 1,
    )
    hit = sorted_codes[found] == projected
    if not hit.any():
        return state.empty
    bag_hit = counts[hit]
    child_hit = child_counts[order[found[hit]]]
    if int(bag_hit.max()) * int(child_hit.max()) >= _INT64_LIMIT:
        raise KernelUnsupported("overflow", "JOIN product could exceed int64")
    return codes[hit], bag_hit * child_hit


def execute_tape(
    instructions,
    indexed_target,
    max_bag: int,
    allowed_masks=None,
) -> int:
    """Run a DP tape against ``indexed_target``, vectorised.

    ``max_bag`` bounds the bag size over the whole tape (``width + 1``
    for a tape compiled from a decomposition of that width).
    ``allowed_masks`` maps a pattern vertex *label* to a Python-int
    candidate bitset (the encoded ``allowed`` restriction); absent
    vertices get the full pool.

    Returns the exact count, or raises :class:`KernelUnsupported` when
    an int64 bound would be crossed — the caller falls back to the
    pure-Python tape.
    """
    numpy = numpy_or_none()
    if numpy is None:
        raise KernelUnsupported("unavailable", "numpy is not importable")
    n = indexed_target.n
    if not packable(n, max_bag):
        raise KernelUnsupported(
            "overflow", f"bag codes n**{max_bag} exceed int64 (n={n})",
        )
    state = _Tables(numpy, indexed_target, max_bag)

    stack: list[tuple] = []  # (codes, counts) pairs, codes unique
    for instruction in instructions:
        op = instruction[0]
        if op == LEAF:
            stack.append((
                numpy.zeros(1, dtype=numpy.int64),
                numpy.ones(1, dtype=numpy.int64),
            ))
        elif op == INTRODUCE:
            _, vertex, position, neighbour_positions = instruction
            mask = (
                allowed_masks.get(vertex)
                if allowed_masks is not None
                else None
            )
            stack.append(
                _introduce(
                    state, stack.pop(), position, neighbour_positions, mask,
                ),
            )
        elif op == FORGET:
            stack.append(_forget(state, stack.pop(), instruction[1]))
        elif len(instruction) == 1:  # JOIN of two tables over one bag
            stack.append(_join(state, stack.pop(), stack.pop()))
        else:  # JOIN of a child's separator table into the bag table
            child = stack.pop()
            stack.append(_join_on(state, stack.pop(), child, instruction[1]))

    (codes, counts) = stack.pop()
    if stack:
        raise AssertionError("tape left extra tables on the stack")
    return int(counts[0]) if len(codes) else 0

"""Benchmark — the integer-indexed graph kernel vs the seed
dict-of-sets path.

The seed ran every hot loop over ``Graph``'s label-space adjacency:
colour refinement rebuilt ``{vertex: interned (colour, sorted-tuple)}``
dicts (one fresh ``frozenset`` per ``neighbours()`` call) for up to n
rounds, and the treewidth DP keyed its tables by tuples of *labels* with
``repr``-sorted bags.  On the structured labels the paper's constructions
use everywhere — CFI vertices ``(w, frozenset(S))``, ℓ-copies ``(y, i)``
— that means hashing and comparing rich Python objects millions of times.

The indexed kernel (`repro.graphs.indexed`) compiles a graph once into
CSR arrays + neighbourhood bitsets and lets refinement, the DP, and the
engine's plans compute entirely over ints.  This bench runs a mixed
WL-refinement + DP-counting workload on rich-label hosts through both
paths (the seed implementations are embedded below, the seed DP with
the seed's nice tree decomposition) and gates the kernel at >= 3x
overall.

On top of that sits the vectorised tier (`repro.kernel`): the DP
instruction tape lowered to batched int64 ndarray steps, and colour
refinement as counting-sort rounds over the CSR arrays.  The second
section here runs a mixed DP+WL workload sized for that tier through
both backends (``force_backend``) and gates numpy at >= 5x over the
indexed pure-Python path.  Its speedup is the record's primary metric;
when numpy is absent the section is skipped and the record is
telemetry-only.  ``python benchmarks/bench_kernel.py`` asserts both
gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import pytest

from _tables import print_table
from repro import kernel
from repro.graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    random_tree,
)
from repro.homs import count_homomorphisms_dp, prepared_pattern
from repro.treewidth import TreeDecomposition
from repro.wl import colour_refinement, wl_1_equivalent
from repro.wl.refinement import indexed_colour_partition


# ----------------------------------------------------------------------
# the seed implementations (dict-of-sets, label space), kept verbatim
# ----------------------------------------------------------------------
class _SeedInterner:
    def __init__(self):
        self._palette = {}

    def intern(self, signature):
        if signature not in self._palette:
            self._palette[signature] = len(self._palette)
        return self._palette[signature]


def seed_colour_refinement(graph):
    interner = _SeedInterner()
    colours = {v: interner.intern("uniform") for v in graph.vertices()}
    for _ in range(max(graph.num_vertices(), 1)):
        num_classes = len(set(colours.values()))
        colours = {
            v: interner.intern(
                (colours[v], tuple(sorted(colours[u] for u in graph.neighbours(v)))),
            )
            for v in graph.vertices()
        }
        if len(set(colours.values())) == num_classes:
            break
    return colours


def seed_wl_1_equivalent(first, second):
    if first.num_vertices() != second.num_vertices():
        return False
    interner = _SeedInterner()
    colours_a = {v: interner.intern("uniform") for v in first.vertices()}
    colours_b = {v: interner.intern("uniform") for v in second.vertices()}

    def refine(graph, colours):
        return {
            v: interner.intern(
                (colours[v], tuple(sorted(colours[u] for u in graph.neighbours(v)))),
            )
            for v in graph.vertices()
        }

    def histogram(colours):
        result = {}
        for colour in colours.values():
            result[colour] = result.get(colour, 0) + 1
        return result

    if histogram(colours_a) != histogram(colours_b):
        return False
    for _ in range(max(first.num_vertices(), 1)):
        num_classes = len(set(colours_a.values()) | set(colours_b.values()))
        colours_a = refine(first, colours_a)
        colours_b = refine(second, colours_b)
        if histogram(colours_a) != histogram(colours_b):
            return False
        if len(set(colours_a.values()) | set(colours_b.values())) == num_classes:
            break
    return True


@dataclass
class SeedNiceNode:
    """One node of the seed's nice tree decomposition."""

    kind: str  # 'leaf' | 'introduce' | 'forget' | 'join'
    bag: frozenset
    children: list = field(default_factory=list)
    vertex: Optional[object] = None

    def iter_postorder(self):
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))


def _seed_chain_between(node, source_bag, target_bag):
    current = set(source_bag)
    for vertex in sorted(source_bag - target_bag, key=repr):
        current.remove(vertex)
        node = SeedNiceNode("forget", frozenset(current), [node], vertex)
    for vertex in sorted(target_bag - source_bag, key=repr):
        current.add(vertex)
        node = SeedNiceNode("introduce", frozenset(current), [node], vertex)
    return node


def seed_nice_tree_decomposition(decomposition: TreeDecomposition):
    """The seed's nice tree (empty root bag): every child chain forgets
    down to and re-introduces up to its parent's whole bag, and
    branches meet in JOINs of equal bags."""
    tree, bags = decomposition.tree, decomposition.bags
    root_id = next(iter(bags))
    parent, order, frontier = {root_id: None}, [root_id], [root_id]
    while frontier:
        current = frontier.pop()
        for neighbour in tree.neighbours(current):
            if neighbour not in parent:
                parent[neighbour] = current
                order.append(neighbour)
                frontier.append(neighbour)
    children_of = {node: [] for node in bags}
    for node, up in parent.items():
        if up is not None:
            children_of[up].append(node)
    converted = {}
    for node in reversed(order):
        bag = bags[node]
        chains = [
            _seed_chain_between(converted[child], bags[child], bag)
            for child in children_of[node]
        ]
        if not chains:
            chains = [_seed_chain_between(
                SeedNiceNode("leaf", frozenset()), frozenset(), bag,
            )]
        combined = chains[0]
        for chain in chains[1:]:
            combined = SeedNiceNode("join", bag, [combined, chain])
        converted[node] = combined
    return _seed_chain_between(converted[root_id], bags[root_id], frozenset())


def _seed_bag_order(bag):
    return sorted(bag, key=repr)


def seed_count_dp(pattern, target, root):
    """The seed treewidth DP: label-keyed tables, repr-sorted bags."""
    if pattern.num_vertices() == 0:
        return 1
    if target.num_vertices() == 0:
        return 0
    target_vertices = target.vertices()
    tables = {}
    for node in root.iter_postorder():
        if node.kind == "leaf":
            table = {(): 1}
        elif node.kind == "introduce":
            child = node.children[0]
            child_table = tables.pop(id(child))
            child_order = _seed_bag_order(child.bag)
            order = _seed_bag_order(node.bag)
            vertex = node.vertex
            vertex_position = order.index(vertex)
            neighbour_positions = [
                child_order.index(u)
                for u in pattern.neighbours(vertex)
                if u in child.bag
            ]
            table = {}
            for key, count in child_table.items():
                for image in target_vertices:
                    if all(
                        target.has_edge(key[pos], image)
                        for pos in neighbour_positions
                    ):
                        new_key = key[:vertex_position] + (image,) + key[vertex_position:]
                        table[new_key] = table.get(new_key, 0) + count
        elif node.kind == "forget":
            child = node.children[0]
            child_table = tables.pop(id(child))
            drop = _seed_bag_order(child.bag).index(node.vertex)
            table = {}
            for key, count in child_table.items():
                new_key = key[:drop] + key[drop + 1:]
                table[new_key] = table.get(new_key, 0) + count
        else:  # join
            left, right = node.children
            left_table = tables.pop(id(left))
            right_table = tables.pop(id(right))
            if len(left_table) > len(right_table):
                left_table, right_table = right_table, left_table
            table = {}
            for key, count in left_table.items():
                other = right_table.get(key)
                if other:
                    table[key] = count * other
        tables[id(node)] = table
    return tables[id(root)].get((), 0)


# ----------------------------------------------------------------------
# workload: rich CFI-style labels, the shape the paper's gadgets produce
# ----------------------------------------------------------------------
def _rich_labels(base):
    """CFI-shaped labels ``((w, i), frozenset(S))`` — hashing/sorting
    these is what the seed paid for on every inner-loop step."""
    mapping = {
        v: (("w", v), frozenset({hash(v) % 5, (hash(v) * 3) % 7, "tag"}))
        for v in base.vertices()
    }
    return base.relabelled(mapping)


def rich_host(n, p, seed):
    return _rich_labels(random_graph(n, p, seed=seed))


def rich_path(n):
    """A long path: refinement needs ~n/2 rounds to stabilise, so the
    seed pays the full quadratic round-rebuild cost — the regime the
    worklist refinement collapses to near-linear."""
    return _rich_labels(path_graph(n))


def wl_workload():
    """(graphs to refine, pairs to compare) — each graph refined twice,
    the profile of repeated indistinguishability checks; long-diameter
    hosts (many rounds) mixed with sparse random ones (few rounds)."""
    graphs = [rich_path(450), rich_path(300)]
    graphs += [rich_host(220, 0.04, seed=70 + i) for i in range(2)]
    pairs = []
    for graph in (graphs[0], graphs[2]):
        relabelled = graph.relabelled(
            {v: ("copy", v) for v in graph.vertices()},
        )
        pairs.append((graph, relabelled))
    return graphs * 2, pairs


def dp_workload():
    """(name, pattern, decomposition, targets) — low-treewidth patterns
    against rich-label hosts, visited twice (indistinguishability access
    shape).  The seed DP runs the seed's nice tree of the same optimal
    decomposition."""
    hosts = [rich_host(17, 0.35, seed=400 + i) for i in range(4)]
    patterns = [grid_graph(2, 3), random_tree(9, seed=11)]
    return [
        (
            f"{'grid 2x3' if index == 0 else 'tree(9)'} x {len(hosts)} hosts x 2",
            pattern,
            prepared_pattern(pattern),
            hosts * 2,
        )
        for index, pattern in enumerate(patterns)
    ]


def _partition(colours):
    blocks = {}
    for vertex, colour in colours.items():
        blocks.setdefault(colour, set()).add(vertex)
    return {frozenset(block) for block in blocks.values()}


# ----------------------------------------------------------------------
# the vectorised tier: numpy kernels vs the indexed pure-Python path
# ----------------------------------------------------------------------
def numpy_dp_workload():
    """(name, pattern, hosts) — tape-compiled patterns against hosts
    large enough that the batched ndarray steps amortise their setup."""
    sparse = [random_graph(400, 0.012, seed=900 + i) for i in range(3)]
    sparse += [random_graph(700, 0.006, seed=910 + i) for i in range(2)]
    return [
        ("tree(9)", random_tree(9, seed=11), sparse),
        ("C6", cycle_graph(6), sparse),
    ]


def numpy_wl_workload():
    """Large sparse hosts, pre-indexed — the counting-sort refinement's
    home turf (few rounds, wide frontiers)."""
    return [
        random_graph(16_000, 0.0004, seed=920).to_indexed(),
        random_graph(8_000, 0.0011, seed=921).to_indexed(),
    ]


def _as_partition(colours):
    seen = {}
    return [seen.setdefault(colour, len(seen)) for colour in colours]


def run_numpy_section(rows):
    """Gate the numpy tier at >= 5x over the indexed path; returns the
    mixed-workload speedup (the record's primary metric)."""
    total_python = 0.0
    total_numpy = 0.0

    # --- WL refinement ---------------------------------------------------
    indexed_hosts = numpy_wl_workload()
    with kernel.force_backend("python"):
        start = time.perf_counter()
        python_parts = [
            _as_partition(indexed_colour_partition(g)) for g in indexed_hosts
        ]
        python_time = time.perf_counter() - start
    with kernel.force_backend("numpy"):
        start = time.perf_counter()
        numpy_parts = [
            _as_partition(indexed_colour_partition(g)) for g in indexed_hosts
        ]
        numpy_time = time.perf_counter() - start
    assert numpy_parts == python_parts
    total_python += python_time
    total_numpy += numpy_time
    sizes = "+".join(str(g.n) for g in indexed_hosts)
    rows.append(
        [
            f"1-WL: n={sizes}",
            f"{python_time * 1000:.1f} ms",
            f"{numpy_time * 1000:.1f} ms",
            f"{python_time / numpy_time:.1f}x",
        ],
    )

    # --- treewidth-DP tapes ----------------------------------------------
    for name, pattern, hosts in numpy_dp_workload():
        decomposition = prepared_pattern(pattern)
        with kernel.force_backend("python"):
            start = time.perf_counter()
            expected = [
                count_homomorphisms_dp(pattern, host, decomposition=decomposition)
                for host in hosts
            ]
            python_time = time.perf_counter() - start
        with kernel.force_backend("numpy"):
            start = time.perf_counter()
            got = [
                count_homomorphisms_dp(pattern, host, decomposition=decomposition)
                for host in hosts
            ]
            numpy_time = time.perf_counter() - start
        assert got == expected
        total_python += python_time
        total_numpy += numpy_time
        rows.append(
            [
                f"DP: {name} x {len(hosts)} hosts",
                f"{python_time * 1000:.1f} ms",
                f"{numpy_time * 1000:.1f} ms",
                f"{python_time / numpy_time:.1f}x",
            ],
        )

    speedup = total_python / total_numpy
    assert speedup >= 5.0, (
        f"numpy tier speedup {speedup:.2f}x below the 5x gate"
    )
    return speedup


def run_experiment() -> float:
    rows = []
    overall_seed = 0.0
    overall_indexed = 0.0

    # --- WL refinement + equivalence -------------------------------------
    graphs, pairs = wl_workload()

    start = time.perf_counter()
    seed_partitions = [_partition(seed_colour_refinement(g)) for g in graphs]
    seed_verdicts = [seed_wl_1_equivalent(a, b) for a, b in pairs]
    seed_time = time.perf_counter() - start

    start = time.perf_counter()
    indexed_partitions = [_partition(colour_refinement(g)) for g in graphs]
    indexed_verdicts = [wl_1_equivalent(a, b) for a, b in pairs]
    indexed_time = time.perf_counter() - start

    assert indexed_partitions == seed_partitions
    assert indexed_verdicts == seed_verdicts
    overall_seed += seed_time
    overall_indexed += indexed_time
    rows.append(
        [
            f"1-WL: {len(graphs)} refinements + {len(pairs)} equivalence",
            f"{seed_time * 1000:.1f} ms",
            f"{indexed_time * 1000:.1f} ms",
            f"{seed_time / indexed_time:.1f}x",
        ],
    )

    # --- treewidth-DP counting -------------------------------------------
    for name, pattern, decomposition, targets in dp_workload():
        root = seed_nice_tree_decomposition(decomposition)
        start = time.perf_counter()
        expected = [seed_count_dp(pattern, target, root) for target in targets]
        seed_time = time.perf_counter() - start

        start = time.perf_counter()
        got = [
            count_homomorphisms_dp(pattern, target, decomposition=decomposition)
            for target in targets
        ]
        indexed_time = time.perf_counter() - start

        assert got == expected
        overall_seed += seed_time
        overall_indexed += indexed_time
        rows.append(
            [
                f"DP: {name}",
                f"{seed_time * 1000:.1f} ms",
                f"{indexed_time * 1000:.1f} ms",
                f"{seed_time / indexed_time:.1f}x",
            ],
        )

    print_table(
        "Indexed kernel vs seed dict-of-sets path — rich CFI-style labels",
        ["workload", "seed", "indexed", "speedup"],
        rows,
    )
    speedup = overall_seed / overall_indexed
    print(f"\noverall speedup: {speedup:.1f}x (gate: >= 3x)")
    assert speedup >= 3.0, f"kernel speedup {speedup:.2f}x below the 3x gate"

    # --- the vectorised tier (primary metric; skipped without numpy) ------
    if kernel.numpy_or_none() is None:
        print(
            "\nnumpy tier unavailable — vectorised section skipped "
            "(record is telemetry-only)",
        )
        return None
    numpy_rows: list[list[str]] = []
    numpy_speedup = run_numpy_section(numpy_rows)
    print_table(
        "Vectorised numpy tier vs indexed pure-Python path — mixed DP+WL",
        ["workload", "python tier", "numpy tier", "speedup"],
        numpy_rows,
    )
    print(f"\nnumpy tier speedup: {numpy_speedup:.1f}x (gate: >= 5x)")
    return numpy_speedup


@pytest.mark.parametrize("index", range(2), ids=["seed", "indexed"])
def test_bench_wl(benchmark, index):
    graphs, pairs = wl_workload()
    if index == 0:
        result = benchmark(
            lambda: [seed_wl_1_equivalent(a, b) for a, b in pairs],
        )
    else:
        result = benchmark(lambda: [wl_1_equivalent(a, b) for a, b in pairs])
    assert all(result)


@pytest.mark.parametrize(
    "index", range(len(dp_workload())), ids=[n for n, _, _, _ in dp_workload()],
)
def test_bench_dp(benchmark, index):
    _, pattern, decomposition, targets = dp_workload()[index]
    result = benchmark(
        lambda: [
            count_homomorphisms_dp(pattern, target, decomposition=decomposition)
            for target in targets
        ],
    )
    root = seed_nice_tree_decomposition(decomposition)
    assert result == [seed_count_dp(pattern, target, root) for target in targets]


if __name__ == "__main__":
    from _harness import main_record

    main_record(
        "bench_kernel",
        run_experiment,
        params={"gate_indexed_vs_seed": 3.0, "gate_numpy_vs_indexed": 5.0},
        primary="numpy_speedup_vs_indexed",
        higher_is_better=True,
    )

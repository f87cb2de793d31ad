"""Deterministic workload generators: ``(workload, seed, scale)`` → inputs.

Everything a run sends to the server is built here from the seed alone —
datasets, inline targets, patterns, queries and the op lists — so the
same seed always produces byte-identical traffic.  The server receives
only these generated graphs, specs and queries.

An op is a tuple whose first field is its kind:

``("count", pid, target)``   ``POST /count``; target is a dataset name or
                             ``("inline", i)``
``("task", pid, name)``      ``POST /task`` with a hom-count spec
``("answers", qid, name)``   ``POST /count-answers``
``("wl-dim", qid)`` / ``("analyze", qid)``
``("write", i)``             ``POST /target-update`` with ``writes[i]``
``("read", pid, name)``      ``POST /task`` hom count, checked per version
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.graphs.generators import random_connected_graph

SCALES = ("full", "tiny")

#: compute_mix answer-count queries, each with the number ``d`` of
#: distinct extension sizes it must have on a dataset.  The interpolation
#: solver needs ~2d+2 power sums, so ``d`` prices a cold answer count;
#: these are the most common values on G(16, .3), and keep a cold count
#: at roughly 30–250 ms on one core.
ANSWER_SHAPES = {
    "deg": ("q(x) :- E(x, y)", 6),
    "tri_apex": ("q(x1, x2) :- E(x1, x2), E(x1, y), E(x2, y)", 3),
    "star2": ("q(x1, x2) :- E(x1, y), E(x2, y)", 7),
    "path4_3": ("q(v1, v2, v3) :- E(v1, v2), E(v2, v3), E(v3, v4)", 6),
    "fork": ("q(x1, x2) :- E(x1, x2), E(x2, y1), E(x2, y2)", 6),
    "cycle4_3": (
        "q(v1, v2, v3) :- E(v1, v2), E(v2, v3), E(v3, v4), E(v4, v1)", 7,
    ),
}


def diamond() -> Graph:
    graph = complete_graph(4)
    graph.remove_edge(0, 3)
    return graph


def hot_patterns() -> dict[str, Graph]:
    return {
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "grid": grid_graph(2, 3),
        "diamond": diamond(),
        "claw": star_graph(3),
    }


@dataclass
class Inputs:
    """Everything one run of one workload sends, plus generation-time facts."""

    workload: str
    seed: int
    scale: str
    datasets: dict = field(default_factory=dict)    # name -> Graph
    inline: list = field(default_factory=list)      # Graph targets
    patterns: dict = field(default_factory=dict)    # pid -> Graph
    queries: dict = field(default_factory=dict)     # qid -> query text
    subscriptions: dict = field(default_factory=dict)  # name -> [pid]
    ops: list = field(default_factory=list)
    warm: list = field(default_factory=list)
    writes: list = field(default_factory=list)      # (name, adds, removes)
    write_ops: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)     # (qid, name) -> count
    pass_len: int = 0  # 0: ops cycle; else passes of this many, never wrapped

    def target(self, ref):
        """An op's target field → dataset name or inline :class:`Graph`."""
        if isinstance(ref, tuple):
            return self.inline[ref[1]]
        return ref

    def digest(self) -> str:
        """A content hash of every generated input (determinism checks)."""
        def edges(graph: Graph) -> list:
            return sorted(repr(sorted(map(repr, edge))) for edge in graph.edges())

        payload = {
            "datasets": {name: edges(g) for name, g in self.datasets.items()},
            "inline": [edges(g) for g in self.inline],
            "patterns": {pid: edges(g) for pid, g in self.patterns.items()},
            "queries": self.queries,
            "subscriptions": self.subscriptions,
            "ops": [repr(op) for op in self.ops],
            "warm": [repr(op) for op in self.warm],
            "writes": [repr(w) for w in self.writes],
            "write_ops": [repr(op) for op in self.write_ops],
            "answers": sorted(map(repr, self.answers.items())),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _graph_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def dense_as(n: int, p: float, rng: random.Random) -> Graph:
    """A uniform random graph on ``n`` vertices with exactly the expected
    edge count of G(n, p).  Counting costs grow steeply with the edge
    count, so fixing it keeps the cost of cold work steady across seeds."""
    graph = empty_graph(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for u, v in rng.sample(pairs, round(p * len(pairs))):
        graph.add_edge(u, v)
    return graph


def generate(workload: str, seed: int, scale: str = "full") -> Inputs:
    """The inputs of ``workload`` for ``seed``.

    ``routed_counts`` sends the ``hot_counts`` traffic of the same seed
    through a router, so it shares that generator.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    builders = {
        "hot_counts": _hot_counts,
        "routed_counts": _hot_counts,
        "compute_mix": _compute_mix,
        "update_stream": _update_stream,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    family = "hot_counts" if workload == "routed_counts" else workload
    rng = random.Random(f"{family}:{seed}")
    inputs = Inputs(workload=workload, seed=seed, scale=scale)
    builders[workload](inputs, rng, tiny=scale == "tiny")
    return inputs


def _hot_counts(inputs: Inputs, rng: random.Random, tiny: bool) -> None:
    """Warm hom counts over three routes; every timed op is a cache hit."""
    n_data, n_inline, n_ops = (2, 2, 64) if tiny else (8, 8, 4096)
    patterns = hot_patterns()
    if tiny:
        patterns = {pid: patterns[pid] for pid in ("C4", "P4", "grid", "claw")}
    inputs.patterns = patterns
    inputs.datasets = {
        f"g{i}": random_graph(60, 0.15, seed=_graph_seed(rng))
        for i in range(n_data)
    }
    inputs.inline = [
        random_graph(20, 0.3, seed=_graph_seed(rng)) for _ in range(n_inline)
    ]
    pids = sorted(patterns)
    names = sorted(inputs.datasets)
    for _ in range(n_ops):
        draw = rng.random()
        pid = rng.choice(pids)
        if draw < 0.5:
            op = ("count", pid, rng.choice(names))
        elif draw < 0.75:
            op = ("task", pid, rng.choice(names))
        else:
            op = ("count", pid, ("inline", rng.randrange(n_inline)))
        inputs.ops.append(op)
    # Warm every distinct request body: a router hashes the body, so one
    # warm request per (route, pattern, target) reaches the owning worker.
    inputs.warm = sorted(set(inputs.ops), key=repr)


def _dp_patterns(rng: random.Random, count: int) -> dict[str, Graph]:
    """Pairwise non-isomorphic random connected 7–9 vertex patterns of
    treewidth 2–3 that compile to DP plans.  The engine keys plans and
    counts by canonical form, so isomorphic patterns would share keys."""
    from repro.engine.plans import select_backend
    from repro.graphs import canonical_form
    from repro.treewidth.exact import treewidth

    patterns: dict[str, Graph] = {}
    seen: set = set()
    while len(patterns) < count:
        graph = random_connected_graph(
            rng.randint(7, 9), 0.25, seed=_graph_seed(rng),
        )
        if select_backend(graph) != "dp" or treewidth(graph) not in (2, 3):
            continue
        canonical = canonical_form(graph)
        if canonical in seen:
            continue
        seen.add(canonical)
        patterns[f"dp{len(patterns)}"] = graph
    return patterns


def _answer_pairs(
    inputs: Inputs, rng: random.Random, per_shape: int, max_datasets: int,
) -> dict[str, list[tuple[str, str]]]:
    """(query, dataset) pairs whose query has exactly its shape's number of
    distinct extension sizes on the dataset, ``per_shape`` of each.

    Fixing ``d`` fixes how many power sums a cold count needs, so the
    cost of a first touch varies little from seed to seed.  16-vertex
    datasets with G(16, .3)'s expected edge count are drawn until every
    shape has its pairs (or the cap is reached); the brute-force answer
    counts are kept as expected values.
    """
    from repro.queries.answers import extension_counts
    from repro.queries.parser import parse_query

    queries = {qid: parse_query(text) for qid, text in inputs.queries.items()}
    found: dict[str, list] = {qid: [] for qid in queries}
    for index in range(max_datasets):
        if all(len(pairs) >= per_shape for pairs in found.values()):
            break
        name = f"a{index}"
        graph = dense_as(16, 0.3, rng)
        for qid in sorted(queries):
            if len(found[qid]) >= per_shape:
                continue
            sizes = extension_counts(queries[qid], graph)
            if len(set(sizes)) == ANSWER_SHAPES[qid][1]:
                inputs.datasets[name] = graph
                inputs.answers[(qid, name)] = len(sizes)
                found[qid].append((qid, name))
    return found


#: One compute_mix block: 50% cold DP counts, 20% first-touch answer
#: counts, 20% repeated answer counts, 10% wl-dim/analyze.  With the
#: cheap answer shapes, ~70% of ops are fast, so the median sits inside
#: the DP mode instead of on the cliff between fast and slow ops.
_MIX_BLOCK = ("dp",) * 10 + ("first",) * 4 + ("repeat",) * 4 + ("query",) * 2


def _compute_mix(inputs: Inputs, rng: random.Random, tiny: bool) -> None:
    """Cold DP counts, cold and repeated answer counts, query analysis.

    The seed draws the data (every dataset graph); the traffic's shape —
    DP patterns, op order, which query shape each answer op uses — comes
    from a fixed generator, so seeds differ in data, not in how much work
    each op position asks for.

    The list is a run of *passes* of ``pass_len`` ops.  Across the whole
    list every DP op is a distinct (pattern, dataset) key and every
    first-touch op a distinct (query, dataset) pair; repeats re-ask pairs
    of their own pass.  A run times whole passes, each on a fresh server,
    so every DP op and first touch is cold and a pass is the same work
    whatever the build's speed.  DP keys come pattern by pattern: one DP
    op in ``n_dp_data`` compiles a plan.
    """
    shape_rng = random.Random("compute_mix:shape")
    n_dp_data, per_shape, n_blocks, n_passes = (1, 6, 1, 2) if tiny else (4, 18, 6, 4)
    inputs.pass_len = n_blocks * len(_MIX_BLOCK)
    n_dp = n_passes * n_blocks * _MIX_BLOCK.count("dp")
    dp_names = [f"h{i}" for i in range(n_dp_data)]
    for name in dp_names:
        inputs.datasets[name] = dense_as(60, 0.15, rng)
    inputs.patterns = _dp_patterns(shape_rng, -(-n_dp // n_dp_data))
    shapes = sorted(ANSWER_SHAPES)
    if tiny:
        shapes = ["deg", "star2", "tri_apex"]
    inputs.queries = {qid: ANSWER_SHAPES[qid][0] for qid in shapes}
    pairs = _answer_pairs(inputs, rng, per_shape, max_datasets=16 * per_shape)
    first_order = [(qid, k) for qid in shapes for k in range(per_shape)]
    shape_rng.shuffle(first_order)
    fresh = [pairs[qid][k] for qid, k in first_order if k < len(pairs[qid])]
    fresh.reverse()  # popped from the end
    dp_keys = []
    for pid in inputs.patterns:
        names = list(dp_names)
        shape_rng.shuffle(names)
        dp_keys.extend((pid, name) for name in names)
    dp_keys = dp_keys[:n_dp][::-1]  # popped from the end
    for _ in range(n_passes):
        touched: list = []
        for _ in range(n_blocks):
            block = list(_MIX_BLOCK)
            shape_rng.shuffle(block)
            for slot in block:
                if slot == "dp":
                    inputs.ops.append(("count",) + dp_keys.pop())
                elif slot == "query":
                    kind = ("wl-dim", "analyze")[len(inputs.ops) % 2]
                    inputs.ops.append((kind, shape_rng.choice(shapes)))
                elif slot == "first" or not touched:
                    if not fresh:
                        raise RuntimeError("too few answer pairs for the passes")
                    touched.append(fresh.pop())
                    inputs.ops.append(("answers",) + touched[-1])
                else:
                    pick = shape_rng.random()
                    inputs.ops.append(("answers",) + touched[int(pick * len(touched))])


def cold_repeats(ops) -> int:
    """compute_mix DP count ops that repeat a key asked for earlier in
    ``ops`` — 0 for any stretch of the list, which is never wrapped."""
    seen: set = set()
    repeats = 0
    for op in ops:
        if op[0] == "count":
            repeats += op in seen
            seen.add(op)
    return repeats


def _update_stream(inputs: Inputs, rng: random.Random, tiny: bool) -> None:
    """Edge-update batches on subscribed datasets beside hom-count reads."""
    n_data, n_writes, n_reads = (1, 400, 64) if tiny else (4, 3000, 4096)
    inputs.patterns = {
        "C4": cycle_graph(4),
        "grid": grid_graph(2, 3),
        "C5": cycle_graph(5),
        "P4": path_graph(4),
    }
    names = [f"u{i}" for i in range(n_data)]
    for name in names:
        inputs.datasets[name] = random_graph(60, 0.15, seed=_graph_seed(rng))
        inputs.subscriptions[name] = ["C4", "grid"]
    inputs.writes = update_batches(inputs.datasets, n_writes, rng)
    inputs.write_ops = [("write", i) for i in range(len(inputs.writes))]
    for _ in range(n_reads):
        inputs.ops.append(("read", rng.choice(("C5", "P4")), rng.choice(names)))


def update_batches(datasets: dict, count: int, rng: random.Random) -> list:
    """``count`` valid edge batches, round-robin over ``datasets``: each
    adds two non-edges and removes two edges of the dataset's state after
    every earlier batch, so density stays put and every batch applies."""
    state = {
        name: {frozenset(edge) for edge in graph.edges()}
        for name, graph in datasets.items()
    }
    sizes = {name: graph.num_vertices() for name, graph in datasets.items()}
    names = sorted(datasets)
    batches = []
    for i in range(count):
        name = names[i % len(names)]
        edges = state[name]
        removes = rng.sample(sorted(tuple(sorted(e)) for e in edges), 2)
        adds: list = []
        while len(adds) < 2:
            u, v = rng.sample(range(sizes[name]), 2)
            edge = frozenset((u, v))
            if edge not in edges and (min(u, v), max(u, v)) not in adds:
                adds.append((min(u, v), max(u, v)))
        for edge in removes:
            edges.discard(frozenset(edge))
        for edge in adds:
            edges.add(frozenset(edge))
        batches.append((name, tuple(adds), tuple(removes)))
    return batches

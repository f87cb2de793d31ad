"""Generators, percentiles, oracles and names — no server needed."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.engine import HomEngine
from repro.graphs import canonical_form, random_graph
from repro.homs.brute_force import count_homomorphisms_brute

from trafficbench.oracle import VersionOracle, adjacency, closed_form
from trafficbench.spec import END_TO_END, PER_LAYER, WORKLOADS
from trafficbench.stats import beyond, percentile, supported_percentile
from trafficbench.workloads import cold_repeats, generate, hot_patterns, update_batches

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = generate(workload, 7, "tiny")
    assert first.digest() == generate(workload, 7, "tiny").digest()
    assert first.digest() != generate(workload, 8, "tiny").digest()
    assert first.ops


@pytest.mark.parametrize("workload", ["hot_counts", "update_stream"])
def test_full_scale_generator_is_deterministic(workload):
    assert generate(workload, 3).digest() == generate(workload, 3).digest()


def test_routed_counts_replays_hot_counts_traffic():
    hot = generate("hot_counts", 5, "tiny")
    routed = generate("routed_counts", 5, "tiny")
    assert hot.ops == routed.ops
    assert hot.warm == routed.warm


def test_compute_mix_answer_pairs_carry_brute_force_counts():
    from repro.queries.answers import count_answers_direct
    from repro.queries.parser import parse_query

    inputs = generate("compute_mix", 2, "tiny")
    assert inputs.answers
    for (qid, name), count in inputs.answers.items():
        query = parse_query(inputs.queries[qid])
        assert count == count_answers_direct(query, inputs.datasets[name])


@pytest.mark.parametrize("scale", ["tiny", "full"])
def test_compute_mix_asks_every_cold_key_once(scale):
    inputs = generate("compute_mix", 1, scale)
    assert inputs.pass_len and len(inputs.ops) % inputs.pass_len == 0
    assert cold_repeats(inputs.ops) == 0
    counts = [op for op in inputs.ops if op[0] == "count"]
    assert len(counts) == len(inputs.ops) // 2
    # Pairwise non-isomorphic patterns: the engine keys by canonical form.
    canonical = {canonical_form(graph) for graph in inputs.patterns.values()}
    assert len(canonical) == len(inputs.patterns)
    # 20% first touches (plus any repeat slot that came before the first).
    answers = [op for op in inputs.ops if op[0] == "answers"]
    assert len(answers) == 2 * len(inputs.ops) // 5
    assert len(set(answers)) >= len(inputs.ops) // 5


def test_update_batches_always_apply():
    datasets = {"a": random_graph(12, 0.3, seed=1)}
    edges = {frozenset(e) for e in datasets["a"].edges()}
    for _, adds, removes in update_batches(datasets, 50, random.Random(0)):
        assert all(frozenset(e) in edges for e in removes)
        assert not any(frozenset(e) in edges for e in adds)
        edges -= {frozenset(e) for e in removes}
        edges |= {frozenset(e) for e in adds}


def test_percentiles_need_ten_samples_beyond():
    assert beyond(100, 90) == 10
    assert supported_percentile(range(1, 100), 90) is None
    assert supported_percentile(range(1, 101), 90) == 90
    assert supported_percentile(range(999), 99) is None
    assert supported_percentile(range(1, 1001), 99) == 990
    assert supported_percentile([5.0] * 20, 50) == 5.0
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("pid", ["C3", "C4", "C5", "C6", "P3", "P4", "P5", "grid"])
def test_closed_forms_match_brute_force(pid):
    graph = random_graph(9, 0.4, seed=4)
    pattern = hot_patterns()[pid]
    expected = count_homomorphisms_brute(pattern, graph)
    assert closed_form(pid, adjacency(graph)) == expected
    assert HomEngine().count(pattern, graph) == expected


def test_version_oracle_replays_batches():
    graph = random_graph(10, 0.4, seed=2)
    batches = update_batches({"g": graph}, 6, random.Random(3))
    oracle = VersionOracle(graph, [(a, r) for _, a, r in batches])
    mutated = graph.copy()
    for _, adds, removes in batches[:4]:
        for edge in removes:
            mutated.remove_edge(*edge)
        for edge in adds:
            mutated.add_edge(*edge)
    assert oracle.count("C4", 4) == count_homomorphisms_brute(
        hot_patterns()["C4"], mutated,
    )


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

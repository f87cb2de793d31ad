"""The answer plan: answer counts on the counting-minimal core.

Every value is checked against direct enumeration; the cache tests pin
down that an answer count is one count entry per core and target.
"""

import pickle

import pytest

from repro.engine import AnswerPlan, HomEngine, compile_answer_plan
from repro.graphs import path_graph, random_graph
from repro.queries import parse_query
from repro.queries.answers import count_answers_direct
from repro.service.store import PersistentStore

SHAPES = {
    "deg": "q(x) :- E(x, y)",
    "tri_apex": "q(x1, x2) :- E(x1, x2), E(x1, y), E(x2, y)",
    "star2": "q(x1, x2) :- E(x1, y), E(x2, y)",
    "path4_3": "q(v1, v2, v3) :- E(v1, v2), E(v2, v3), E(v3, v4)",
    "fork": "q(x1, x2) :- E(x1, x2), E(x2, y1), E(x2, y2)",
    "cycle4_3": "q(v1, v2, v3) :- E(v1, v2), E(v2, v3), E(v3, v4), E(v4, v1)",
    "star3": "q(x1, x2, x3) :- E(x1, y), E(x2, y), E(x3, y)",
    "chain4": (
        "q(x1, x2, x3, x4) :- E(x1, y1), E(x2, y1), E(x2, y2), E(x3, y2), "
        "E(x3, y3), E(x4, y3)"
    ),
    "bridge": "q(x1, x2) :- E(x1, y1), E(y1, y2), E(y2, x2), E(y1, y3), E(y3, y2)",
    "detached": "q(x) :- E(x, y), E(a, b), E(b, c), E(c, a)",
}

# (core size, sew, tables, full core?) — cycle4_3 has ew 2 but sew 1.
STRUCTURE = {
    "deg": (2, 1, 1, False),
    "tri_apex": (3, 2, 1, False),
    "star2": (3, 2, 1, False),
    "path4_3": (3, 1, 0, True),
    "fork": (2, 1, 0, True),
    "cycle4_3": (3, 1, 0, True),
    "star3": (4, 3, 1, False),
    "chain4": (7, 2, 3, False),
    "bridge": (5, 2, 1, False),
    "detached": (5, 2, 1, False),
}


class TestAgainstDirect:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_values(self, name, seed):
        query = parse_query(SHAPES[name])
        host = random_graph(9, 0.35, seed=seed)
        value, cached, plan = HomEngine().answer_count_detailed(query, host)
        assert value == count_answers_direct(query, host)
        assert cached is False and isinstance(plan, AnswerPlan)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_structure(self, name):
        plan = compile_answer_plan(parse_query(SHAPES[name]))
        core_size, sew, tables, full = STRUCTURE[name]
        assert (plan.core.num_vertices(), plan.sew, len(plan.tables)) == (
            core_size, sew, tables,
        )
        assert (plan.hom is not None) == full
        assert plan.width <= plan.sew

    def test_edgeless_and_empty_targets(self):
        for text in (SHAPES["star2"], SHAPES["detached"], SHAPES["fork"]):
            query = parse_query(text)
            for host in (random_graph(5, 0.0, seed=1), random_graph(0, 0.5, seed=1)):
                assert HomEngine().answer_count_detailed(query, host)[0] == (
                    count_answers_direct(query, host)
                )

    def test_boolean_query_is_a_0_1_factor(self):
        query = parse_query("q() :- E(x, y), E(y, z), E(z, x)")
        plan = compile_answer_plan(query)
        assert plan.free == () and len(plan.factors) == 1
        for seed in range(4):
            host = random_graph(7, 0.3, seed=seed)
            assert plan.execute(host) == count_answers_direct(query, host)


class TestCaching:
    def test_repeat_is_a_count_hit_that_runs_no_plan(self):
        engine = HomEngine()
        query, host = parse_query(SHAPES["star2"]), random_graph(10, 0.3, seed=2)
        value, cached, _ = engine.answer_count_detailed(query, host)
        assert cached is False
        work = (engine.plans_compiled, engine.counts_executed)
        assert engine.answer_count_detailed(query, host)[:2] == (value, True)
        assert (engine.plans_compiled, engine.counts_executed) == work

    def test_plan_compiles_once_per_query(self):
        engine = HomEngine()
        for seed in range(3):
            query = parse_query(SHAPES["star2"])
            engine.answer_count_detailed(query, random_graph(8, 0.4, seed=seed))
        assert engine.plans_compiled == 1
        assert engine.stats_summary()["counts_cached"] == 3

    def test_rephrasing_shares_the_hom_count_entry(self):
        engine = HomEngine()
        host = random_graph(10, 0.3, seed=3)
        fork = parse_query(SHAPES["fork"])
        edge = parse_query("q(a, b) :- E(a, b)")
        assert engine.answer_count_detailed(fork, host)[1] is False
        value, cached, _ = engine.answer_count_detailed(edge, host)
        assert cached is True
        # The fork's core is the bare edge: its answers are Hom(K2, G).
        assert engine.count_detailed(path_graph(2), host) == (value, True)
        assert engine.stats_summary()["counts_cached"] == 1

    def test_isomorphic_cores_share_one_entry(self):
        engine = HomEngine()
        host = random_graph(10, 0.3, seed=4)
        star = parse_query(SHAPES["star2"])
        # z folds onto y, leaving a relabelled star2 core.
        padded = parse_query("q(a, b) :- E(a, y), E(b, y), E(a, z)")
        value = engine.answer_count_detailed(star, host)[0]
        assert engine.answer_count_detailed(padded, host)[:2] == (value, True)
        assert engine.plans_compiled == 2
        assert engine.stats_summary()["counts_cached"] == 1


class TestPersistence:
    def test_plan_pickles(self):
        plan = compile_answer_plan(parse_query(SHAPES["chain4"]))
        copy = pickle.loads(pickle.dumps(plan))
        host = random_graph(9, 0.4, seed=6)
        assert copy.execute(host) == plan.execute(host)

    def test_store_round_trip(self, tmp_path):
        query = parse_query(SHAPES["tri_apex"])
        host, other = random_graph(9, 0.4, seed=7), random_graph(9, 0.4, seed=8)
        writer = HomEngine(store=PersistentStore(tmp_path))
        value = writer.answer_count_detailed(query, host)[0]
        writer.store.close()

        reader = HomEngine(store=PersistentStore(tmp_path))
        assert reader.answer_count_detailed(query, host)[:2] == (value, True)
        plan = reader.answer_plan_for(query)
        assert isinstance(plan, AnswerPlan) and reader.plans_compiled == 0
        assert reader.answer_count_detailed(query, other)[0] == (
            count_answers_direct(query, other)
        )
        reader.store.close()

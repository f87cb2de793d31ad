"""Cross-executor equivalence: one spec, three execution contexts.

The same task specs run on a :class:`LocalExecutor`, a
:class:`ServiceExecutor` (real loopback HTTP service), and a
:class:`DynamicExecutor` (maintained handles), and must return identical
values wrapped in the same :class:`Result` shape.  The dynamic executor
must additionally track target updates that the local executor sees
through the shared registry.
"""

from __future__ import annotations

import pytest

from repro.api import (
    AnalyzeTask,
    AnswerCountTask,
    DynamicExecutor,
    HomCountTask,
    KgAnswerCountTask,
    Result,
    ServiceExecutor,
    Session,
    TaskBatch,
    WlDimensionTask,
)
from repro.engine import set_default_engine
from repro.errors import ReproError, TaskError
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.homs.brute_force import count_homomorphisms_brute
from repro.kg import KnowledgeGraph, count_kg_answers_brute, kg_query_from_triples
from repro.queries import count_answers, parse_query
from repro.service import BackgroundServer

TEXT = "q(x1, x2) :- E(x1, y), E(x2, y)"


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture(scope="module")
def host():
    return random_graph(9, 0.4, seed=5)


@pytest.fixture(scope="module")
def taste_kg():
    return KnowledgeGraph(
        vertices={"u1": "User", "u2": "User", "m1": "Item", "m2": "Item"},
        triples=[
            ("u1", "likes", "m1"), ("u2", "likes", "m1"), ("u2", "likes", "m2"),
        ],
    )


@pytest.fixture
def kg_query():
    return kg_query_from_triples(
        [("x", "likes", "z"), ("y", "likes", "z")], ["x", "y"],
    )


def task_suite(host, kg, kg_query):
    return [
        HomCountTask(cycle_graph(4), "hosts"),
        HomCountTask(path_graph(3), host),
        AnswerCountTask(TEXT, "hosts"),
        AnswerCountTask("q() :- E(x, y)", host),
        KgAnswerCountTask(kg_query, "taste"),
        KgAnswerCountTask(kg_query, kg),
        WlDimensionTask(TEXT),
        AnalyzeTask(TEXT),
    ]


def assert_result_shape(result, task, executor_name):
    assert isinstance(result, Result)
    assert result.kind == task.kind
    assert result.executor == executor_name
    assert isinstance(result.backend, str)
    assert isinstance(result.provenance, dict)
    assert isinstance(result.elapsed_ms, float)
    assert isinstance(result.explain(), str) and task.kind in result.explain()
    if isinstance(getattr(task, "target", None), str):
        assert result.version is not None
        assert result.provenance["target"] == task.target


class TestCrossExecutorEquivalence:
    def test_same_spec_same_value_everywhere(self, host, taste_kg, kg_query):
        local = Session()
        local.register("hosts", host)
        local.register("taste", taste_kg)
        dynamic = Session(DynamicExecutor(registry=local.registry))
        tasks = task_suite(host, taste_kg, kg_query)

        # ground truth from the reference (brute) implementations
        expected = [
            count_homomorphisms_brute(cycle_graph(4), host),
            count_homomorphisms_brute(path_graph(3), host),
            count_answers(parse_query(TEXT), host),
            count_answers(parse_query("q() :- E(x, y)"), host),
            count_kg_answers_brute(kg_query, taste_kg),
            count_kg_answers_brute(kg_query, taste_kg),
            2,
            None,  # analysis dict compared across executors only
        ]

        try:
            with BackgroundServer(workers=2) as server:
                remote = Session(ServiceExecutor(port=server.port))
                remote.register("hosts", host)
                remote.register("taste", taste_kg)
                by_executor = {}
                for session, name in (
                    (local, "local"), (remote, "service"), (dynamic, "dynamic"),
                ):
                    results = [session.run(task) for task in tasks]
                    for task, result in zip(tasks, results):
                        assert_result_shape(result, task, name)
                    by_executor[name] = [result.value for result in results]
        finally:
            dynamic.close()

        assert by_executor["local"] == by_executor["service"] == by_executor["dynamic"]
        for value, want in zip(by_executor["local"], expected):
            if want is not None:
                assert value == want

    def test_dynamic_tracks_updates_local_recomputes(self, host):
        local = Session()
        local.register("hosts", host)
        dynamic = Session(DynamicExecutor(registry=local.registry))
        task = HomCountTask(cycle_graph(4), "hosts")
        try:
            before = dynamic.run(task)
            assert before.value == local.run(task).value
            assert before.backend == "maintained/initial"

            missing = [
                (u, v)
                for u in host.vertices()
                for v in host.vertices()
                if u < v and not host.has_edge(u, v)
            ]
            version = local.update("hosts", add_edges=[missing[0]])
            after = dynamic.run(task)
            assert after.version == version
            assert after.value == local.run(task).value
            assert after.backend in (
                "maintained/delta", "maintained/recompute",
            )
        finally:
            dynamic.close()

    def test_batches_and_misuse(self, host):
        session = Session()
        batch = TaskBatch([
            HomCountTask(cycle_graph(3), host),
            WlDimensionTask(TEXT),
        ])
        values = [result.value for result in session.run_batch(batch)]
        assert values == [
            count_homomorphisms_brute(cycle_graph(3), host), 2,
        ]
        # iterables of specs are wrapped transparently
        assert [
            r.value for r in session.run_batch(iter(batch.tasks))
        ] == values
        with pytest.raises(TaskError):
            session.run(batch)

    def test_service_executor_batch(self, host):
        batch = TaskBatch([
            HomCountTask(cycle_graph(3), host),
            AnswerCountTask(TEXT, host),
        ])
        local_values = [r.value for r in Session().run_batch(batch)]
        try:
            with BackgroundServer(workers=2) as server:
                remote = Session(ServiceExecutor(port=server.port))
                results = remote.run_batch(batch)
                assert [r.value for r in results] == local_values
                assert all(r.executor == "service" for r in results)
        finally:
            set_default_engine(None)

    def test_local_warm_cache_provenance(self, host):
        session = Session()
        task = HomCountTask(cycle_graph(4), host)
        cold = session.run(task)
        warm = session.run(task)
        assert cold.value == warm.value
        assert cold.cached is False and warm.cached is True

    def test_using_rebinds_the_registry(self, host):
        local = Session()
        local.register("hosts", host)
        live = local.using(DynamicExecutor())  # no registry= needed
        task = HomCountTask(cycle_graph(4), "hosts")
        try:
            assert live.run(task).value == local.run(task).value
            assert live.registry is local.registry
            assert live.executor.registry is local.registry
        finally:
            live.close()

    def test_executor_plus_registry_rejected(self):
        with pytest.raises(TaskError):
            Session(executor=DynamicExecutor(), registry=Session().registry)

    def test_using_rejects_populated_executors(self, host):
        occupied = DynamicExecutor()
        occupied.registry.register_graph("mine", host)
        with pytest.raises(TaskError):
            Session().using(occupied)  # would strand 'mine'


class TestMixedKindUpdates:
    """An update carrying the other dataset kind's fields is rejected
    whole, with the same error code on every session, and leaves the
    dataset's version where it was."""

    TRIPLE = ("u1", "likes", "m2")
    VALID = {"ring": {"add_edges": [(0, 2)]}, "taste": {"add_triples": [TRIPLE]}}
    FOREIGN = {"ring": {"add_triples": [TRIPLE]}, "taste": {"add_edges": [(0, 2)]}}

    @pytest.fixture(params=["local", "service"])
    def session(self, request, taste_kg):
        if request.param == "local":
            session = Session()
            session.register("ring", cycle_graph(5))
            session.register("taste", taste_kg)
            yield session
            return
        with BackgroundServer(workers=2) as server:
            session = Session(ServiceExecutor(port=server.port))
            session.register("ring", cycle_graph(5))
            session.register("taste", taste_kg)
            yield session

    @pytest.mark.parametrize("name", ["ring", "taste"])
    def test_other_kind_fields_are_rejected(self, session, name):
        with pytest.raises(ReproError) as excinfo:
            session.update(name, **self.VALID[name], **self.FOREIGN[name])
        assert excinfo.value.code == "bad-request"
        assert session.update(name, **self.VALID[name]) == 1


class TestAnswerRoutes:
    """Every answer-count method runs on the executor's own engine."""

    def test_interpolation_counts_on_the_pinned_engine(self):
        from repro.api import LocalExecutor
        from repro.engine import HomEngine
        from repro.queries.answers import count_answers_direct

        query = parse_query(TEXT)
        host = random_graph(12, 0.3, seed=4)
        pinned, default = HomEngine(), HomEngine()
        set_default_engine(default)
        value = LocalExecutor(engine=pinned).answer_count(
            query, host, method="interpolation",
        )
        assert value == count_answers_direct(query, host)
        # Every power sum is one engine count, all of them on the pinned
        # engine: p_1 .. p_{2d+2} for the d distinct extension sizes.
        assert pinned.counts_executed >= 4
        assert pinned.counts_executed == pinned.stats.count_misses
        assert default.counts_executed == 0

    def test_auto_runs_the_answer_plan(self, host):
        from repro.api import LocalExecutor
        from repro.engine import HomEngine

        session = Session(LocalExecutor(engine=HomEngine()))
        session.register("hosts", host)
        first = session.run(AnswerCountTask(TEXT, "hosts"))
        again = session.run(AnswerCountTask(TEXT, "hosts"))
        assert first.value == again.value == count_answers(parse_query(TEXT), host)
        assert first.backend.startswith("answer-plan(core=3, sew=2, tables=1)/")
        assert "answer-plan(core=3, sew=2, tables=1)" in first.explain()
        assert (first.cached, again.cached) == (False, True)
        boolean = session.run(AnswerCountTask("q() :- E(x, y)", "hosts"))
        assert (boolean.backend, boolean.cached) == ("direct", False)

    def test_dataset_answers_key_on_the_dataset_target_id(self, host):
        from repro.api import LocalExecutor
        from repro.engine import HomEngine

        engine = HomEngine()
        session = Session(LocalExecutor(engine=engine))
        session.register("hosts", host)
        value = session.run(AnswerCountTask(TEXT, "hosts")).value
        serving = session.registry.get("hosts", kind="graph").serving
        assert engine.answer_count_detailed(
            parse_query(TEXT), serving.graph, target_id=serving.target_id,
        )[:2] == (value, True)

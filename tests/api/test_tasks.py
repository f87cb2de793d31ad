"""Unit tests for the typed task specs: validation, identity, immutability."""

from __future__ import annotations

import pytest

from repro.api import (
    AnalyzeTask,
    AnswerCountTask,
    HomCountTask,
    KgAnswerCountTask,
    TaskBatch,
    WlDimensionTask,
)
from repro.errors import ParseError, TaskError
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.kg import KnowledgeGraph, kg_query_from_triples
from repro.queries import parse_query

TEXT = "q(x1, x2) :- E(x1, y), E(x2, y)"


class TestConstruction:
    def test_hom_count_copies_pattern(self):
        pattern = cycle_graph(4)
        task = HomCountTask(pattern, path_graph(3))
        pattern.add_edge(0, 2)
        assert task.pattern.num_edges() == 4  # the chord never reached the task

    def test_hom_count_decodes_specs(self):
        task = HomCountTask({"graph6": "Cl"}, {"graph6": "D?{"})
        assert task.pattern.num_vertices() == 4

    def test_dataset_name_target(self):
        task = HomCountTask(cycle_graph(3), "hosts")
        assert task.target == "hosts"

    def test_empty_dataset_name_rejected(self):
        with pytest.raises(TaskError):
            HomCountTask(cycle_graph(3), "")

    def test_bad_pattern_rejected(self):
        with pytest.raises(TaskError):
            HomCountTask(42, cycle_graph(3))

    def test_query_text_validated_eagerly(self):
        with pytest.raises(ParseError):
            AnswerCountTask("q(x) :- R(x, y)", cycle_graph(3))
        with pytest.raises(ParseError):
            WlDimensionTask("not a query")

    def test_query_object_accepted(self):
        task = AnswerCountTask(parse_query(TEXT), cycle_graph(4))
        assert task.parsed().free_variables == parse_query(TEXT).free_variables

    def test_text_query_is_parsed_once(self, monkeypatch):
        import repro.queries.parser as parser

        texts = []
        real = parser.parse_query

        def counting_parse(text, *args, **kwargs):
            texts.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_query", counting_parse)
        task = AnswerCountTask(TEXT, cycle_graph(4))
        assert task.parsed() is task.parsed()
        assert texts == [TEXT]

    @pytest.mark.parametrize("kind", [WlDimensionTask, AnalyzeTask])
    def test_analysed_query_is_parsed_once(self, monkeypatch, kind):
        import repro.queries.parser as parser
        from repro.api import Session

        texts = []
        real = parser.parse_query

        def counting_parse(text, *args, **kwargs):
            texts.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_query", counting_parse)
        task = kind(TEXT)
        Session().run(task)
        assert texts == [TEXT]
        assert task.parsed() is task.parsed()

    def test_unknown_method_rejected(self):
        with pytest.raises(TaskError):
            AnswerCountTask(TEXT, cycle_graph(3), method="quantum")

    def test_kg_task_from_spec(self):
        query = kg_query_from_triples([("x", "likes", "z")], ["x"])
        kg = KnowledgeGraph(triples=[("a", "likes", "b")])
        task = KgAnswerCountTask(query, kg)
        assert task.target is kg
        with pytest.raises(TaskError):
            KgAnswerCountTask("not a query", kg)

    def test_batch_members_validated(self):
        inner = TaskBatch([AnalyzeTask(TEXT)])
        with pytest.raises(TaskError):
            TaskBatch([TEXT])
        with pytest.raises(TaskError):
            TaskBatch([inner])  # no nesting

    def test_batch_container_protocol(self):
        tasks = [WlDimensionTask(TEXT), AnalyzeTask(TEXT)]
        batch = TaskBatch(tasks)
        assert len(batch) == 2
        assert list(batch) == list(batch.tasks)
        assert batch[1].kind == "analyze"


class TestIdentity:
    def test_frozen(self):
        task = WlDimensionTask(TEXT)
        with pytest.raises(Exception):
            task.query = "q(x) :- E(x, y)"

    def test_equality_is_canonical(self):
        host = random_graph(6, 0.5, seed=3)
        left = HomCountTask(cycle_graph(4), host)
        right = HomCountTask({"graph6": "Cl"}, host.copy())
        assert left == right
        assert hash(left) == hash(right)
        assert left.cache_key() == right.cache_key()

    def test_distinct_specs_differ(self):
        host = random_graph(6, 0.5, seed=3)
        assert HomCountTask(cycle_graph(4), host) != HomCountTask(cycle_graph(5), host)
        assert AnswerCountTask(TEXT, host) != AnswerCountTask(
            TEXT, host, method="direct",
        )
        assert WlDimensionTask(TEXT) != AnalyzeTask(TEXT)

    def test_cache_key_is_process_independent_shape(self):
        key = AnalyzeTask(TEXT).cache_key()
        assert isinstance(key, str) and len(key) == 64  # sha256 hex

    def test_repr_mentions_shape(self):
        task = HomCountTask(cycle_graph(4), "hosts")
        assert "n4m4" in repr(task) and "hosts" in repr(task)

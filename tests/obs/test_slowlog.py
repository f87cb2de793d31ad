"""Slow-query log: thresholding, capture contents, ring bounds."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.api import HomCountTask, Session
from repro.api.executors import LocalExecutor
from repro.engine import HomEngine
from repro.errors import ObservabilityError
from repro.graphs import path_graph, random_graph
from repro.obs import (
    clear_slow_queries,
    maybe_record,
    registry,
    set_slowlog_limit,
    set_slowlog_threshold_ms,
    slow_queries,
    slowlog_limit,
    slowlog_threshold_ms,
)
from repro.obs.slowlog import DEFAULT_SLOWLOG_LIMIT


def fresh_session() -> Session:
    return Session(executor=LocalExecutor(engine=HomEngine()))


def metric(snapshot: dict, name: str, **labels) -> float:
    total = 0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            value = sample["value"]
            total += value["count"] if isinstance(value, dict) else value
    return total


class TestThreshold:
    def test_set_returns_previous_and_rejects_negative(self):
        previous = set_slowlog_threshold_ms(5.0)
        assert slowlog_threshold_ms() == 5.0
        assert set_slowlog_threshold_ms(previous) == 5.0
        with pytest.raises(ObservabilityError):
            set_slowlog_threshold_ms(-1.0)

    def test_nan_is_rejected_and_leaves_the_threshold(self):
        set_slowlog_threshold_ms(5.0)
        with pytest.raises(ObservabilityError):
            set_slowlog_threshold_ms(float("nan"))
        assert slowlog_threshold_ms() == 5.0

    @pytest.mark.parametrize("raw", ["nan", "-1"])
    def test_invalid_env_threshold_falls_back_to_the_default(self, raw):
        completed = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import slowlog_threshold_ms; "
             "print(slowlog_threshold_ms())"],
            env={**os.environ, "REPRO_SLOWLOG_MS": raw},
            capture_output=True, text=True, check=True,
        )
        assert float(completed.stdout) == 100.0

    def test_infinite_threshold_disables_capture(self):
        set_slowlog_threshold_ms(float("inf"))
        session = fresh_session()
        result = session.run(HomCountTask(path_graph(3), path_graph(5)))
        assert maybe_record(None, result) is None
        assert slow_queries() == []


class TestCapture:
    def test_slow_task_entry_carries_key_cost_and_trace(self):
        set_slowlog_threshold_ms(0.0)
        session = fresh_session()
        task = HomCountTask(path_graph(3), random_graph(12, 0.3, seed=1))
        result = session.run(task)

        entries = slow_queries()
        assert entries
        entry = entries[-1]
        assert entry["task_key"] == task.cache_key()
        assert entry["kind"] == "hom-count"
        assert entry["executor"] == "local"
        assert entry["elapsed_ms"] >= 0
        assert entry["threshold_ms"] == 0.0
        assert entry["trace_id"] == result.trace.trace_id
        # cold run: the cost walk saw real compile/execute work
        assert entry["cost"]["total_ms"] >= 0
        assert entry["cost"]["execute_spans"] >= 1
        # the explain text is the full plan + provenance + trace rendering
        assert "task.hom-count" in entry["explain"]
        assert entry["backend"] in entry["explain"]

    def test_fast_results_are_skipped(self):
        set_slowlog_threshold_ms(1000.0)
        session = fresh_session()
        session.run(HomCountTask(path_graph(2), path_graph(6)))
        assert slow_queries() == []

    def test_taskless_record_has_null_key(self):
        set_slowlog_threshold_ms(0.0)
        session = fresh_session()
        result = session.run(HomCountTask(path_graph(3), path_graph(5)))
        entry = maybe_record(None, result)
        assert entry is not None
        assert entry["task_key"] is None

    def test_counter_increments_per_capture(self):
        set_slowlog_threshold_ms(0.0)
        session = fresh_session()
        before = registry().snapshot()
        session.run(HomCountTask(path_graph(3), random_graph(10, 0.3, seed=2)))
        session.run(HomCountTask(path_graph(4), random_graph(10, 0.3, seed=2)))
        after = registry().snapshot()
        delta = (
            metric(after, "repro_slow_queries_total",
                   kind="hom-count", executor="local")
            - metric(before, "repro_slow_queries_total",
                     kind="hom-count", executor="local")
        )
        assert delta == 2


class TestRing:
    def test_limit_keeps_newest_entries_in_order(self):
        set_slowlog_threshold_ms(0.0)
        session = fresh_session()
        tasks = [
            HomCountTask(path_graph(n), path_graph(7)) for n in range(2, 7)
        ]
        previous = set_slowlog_limit(3)
        try:
            assert slowlog_limit() == 3
            for task in tasks:
                session.run(task)
            entries = slow_queries()
            assert len(entries) == 3
            assert [e["task_key"] for e in entries] == [
                task.cache_key() for task in tasks[-3:]
            ]
            seqs = [e["seq"] for e in entries]
            assert seqs == sorted(seqs)
            # a smaller slice returns the newest entries
            assert slow_queries(limit=1)[0]["task_key"] \
                == tasks[-1].cache_key()
        finally:
            set_slowlog_limit(previous)
        assert slowlog_limit() == DEFAULT_SLOWLOG_LIMIT

    def test_limit_rejects_nonpositive(self):
        with pytest.raises(ObservabilityError):
            set_slowlog_limit(0)

    def test_clear(self):
        set_slowlog_threshold_ms(0.0)
        session = fresh_session()
        session.run(HomCountTask(path_graph(3), path_graph(5)))
        assert slow_queries()
        clear_slow_queries()
        assert slow_queries() == []

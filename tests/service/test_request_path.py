"""In-process tests of the one counting request path.

``POST /task`` and its verb aliases (``/count``, ``/count-answers``,
``/wl-dim``, ``/analyze``) reach the scheduler through one handler under
one key: the request body plus the content of the datasets it names.
The coalescing tests hold the service's only scheduler worker with a
blocker job while their requests are admitted, so every request is in
flight at once and the outcome does not depend on timing.

A single hom count whose count and plan are already in the engine's
memory is answered on the event loop by the executor's probe
(:meth:`~repro.api.executors.LocalExecutor.cached`) and never reaches a
worker; the ``TestWarmHits*`` classes pin down that path.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import (
    AnalyzeTask,
    AnswerCountTask,
    HomCountTask,
    KgAnswerCountTask,
    TaskBatch,
    WlDimensionTask,
)
from repro.api.executors import LocalExecutor
from repro.engine import HomEngine
from repro.graphs import Graph, cycle_graph, path_graph, random_graph
from repro.graphs.io import to_graph6
from repro.homs.brute_force import count_homomorphisms_brute
from repro.kg import KnowledgeGraph, kg_query_from_triples
from repro.queries.answers import count_answers
from repro.queries.parser import parse_query
from repro.service.server import CountingService, task_body
from repro.service.store import PersistentStore
from repro.service.wire import (
    kg_query_to_spec,
    result_to_payload,
    result_to_wire,
    task_from_wire,
    task_to_wire,
)
from repro.utils import stable_key_digest


def run_held(datasets: dict, requests: list[tuple[str, dict]]):
    """Send ``requests`` to a fresh ``CountingService(workers=1)`` while a
    blocker job holds its worker; returns ``(replies, scheduler stats)``."""

    async def main():
        service = CountingService(workers=1, install_default_engine=False)
        for name, graph in datasets.items():
            service.registry.register_graph(name, graph)
        await service.scheduler.start()
        release = threading.Event()
        try:
            blocker = asyncio.ensure_future(
                service.scheduler.submit(("blocker",), release.wait),
            )
            calls = [
                asyncio.ensure_future(service.handle("POST", path, body))
                for path, body in requests
            ]
            for _ in range(2000):  # until every request reached the scheduler
                if service.scheduler.stats.submitted > len(requests):
                    break
                await asyncio.sleep(0.005)
            assert service.scheduler.stats.submitted == 1 + len(requests)
            release.set()
            await asyncio.wait_for(blocker, 30)
            replies = await asyncio.wait_for(asyncio.gather(*calls), 30)
            return replies, service.scheduler.stats.snapshot()
        finally:
            release.set()  # never leave the worker thread blocked
            await service.scheduler.stop()
            service.close()

    return asyncio.run(main())


class TestOneRequestPath:
    def test_count_and_task_with_one_body_share_one_job(self):
        host = random_graph(10, 0.4, seed=5)
        pattern = cycle_graph(4)
        expected = count_homomorphisms_brute(pattern, host)
        body = task_to_wire(HomCountTask(pattern, "hosts"))

        replies, stats = run_held(
            {"hosts": host}, [("/count", body), ("/task", body)],
        )

        assert stats["executed"] == 2  # the blocker and one shared job
        assert stats["coalesced"] == 1
        (count_status, count_reply, _), (task_status, task_reply, _) = replies
        assert count_status == task_status == 200
        assert count_reply["kind"] == "count"
        assert count_reply["count"] == expected
        assert count_reply["target"] == "hosts"
        assert task_reply["kind"] == "result"
        assert task_reply["task"] == "hom-count"
        assert task_reply["value"] == expected
        assert task_reply["provenance"]["target"] == "hosts"

    def test_each_reply_echoes_its_own_target_and_query(self):
        """Two datasets with identical content and two spellings of one
        CQ, all in flight at once: every reply names its own dataset and
        repeats its own query text."""
        host = random_graph(9, 0.4, seed=17)
        spellings = (
            "q(x1, x2) :- E(x1, y), E(x2, y)",
            "q(x1,x2) :- E(x1,y),E(x2,y)",
        )
        names = ("left", "right")
        pattern = path_graph(3)
        requests = [
            ("/count-answers", {"query": text, "target": name})
            for text in spellings for name in names
        ] + [
            ("/count", {"pattern": {"graph6": to_graph6(pattern)}, "target": name})
            for name in names
        ]

        replies, _ = run_held({"left": host, "right": host.copy()}, requests)

        answers = count_answers(parse_query(spellings[0]), host)
        homs = count_homomorphisms_brute(pattern, host)
        for (path, body), (status, reply, _) in zip(requests, replies):
            assert status == 200, reply
            assert reply["target"] == body["target"]
            if path == "/count-answers":
                assert reply["query"] == body["query"]
                assert reply["count"] == answers
            else:
                assert reply["count"] == homs


class TestTaskBody:
    """``task_body`` is the task a request stands for: the service keys
    its scheduler on it and the cluster router places by its digest."""

    def test_verb_and_task_bodies_share_one_digest(self):
        body = task_to_wire(HomCountTask(cycle_graph(4), "hosts"))
        bare = {key: value for key, value in body.items() if key != "task"}
        digests = {
            stable_key_digest(task_body(path, request))
            for path, request in (
                ("/task", body), ("/count", body), ("/count", bare),
            )
        }
        assert len(digests) == 1

    def test_count_answers_with_kg_query_is_a_kg_task(self):
        kg_query = kg_query_to_spec(kg_query_from_triples([("x", "r", "y")], ["x"]))
        kg_body = task_body("/count-answers", {"kg_query": kg_query, "target": "kg"})
        assert kg_body["task"] == "kg-answer-count"
        assert task_from_wire(kg_body).kind == "kg-answer-count"
        cq_body = task_body("/count-answers", {"query": "q(x) :- E(x, y)", "target": "g"})
        assert task_from_wire(cq_body).kind == "answer-count"


def run_service(main, **options):
    """Run ``await main(service)`` on a fresh started one-worker
    ``CountingService`` and return its result; the service is stopped on
    every exit path."""

    async def runner():
        service = CountingService(
            workers=1, install_default_engine=False, **options,
        )
        await service.scheduler.start()
        try:
            return await main(service)
        finally:
            await service.scheduler.stop()
            service.close()

    return asyncio.run(runner())


def identity_holds(stats: dict) -> bool:
    return stats["submitted"] == (
        stats["executed"] + stats["coalesced"] + stats["cached"] + stats["failed"]
    )


def without_timing(reply: dict) -> dict:
    """A ``/task`` reply minus its elapsed time and trace (and the cost
    breakdown derived from the trace)."""
    provenance = {
        key: value for key, value in reply["provenance"].items()
        if key not in ("trace", "cost")
    }
    return {**reply, "provenance": provenance, "elapsed_ms": None}


class TestWarmHitsOnTheLoop:
    def test_warm_hit_is_answered_while_the_only_worker_is_held(self):
        host = random_graph(10, 0.4, seed=5)
        body = task_to_wire(HomCountTask(cycle_graph(4), "hosts"))
        started, release = threading.Event(), threading.Event()

        def hold():
            started.set()
            release.wait()

        async def main(service):
            service.registry.register_graph("hosts", host)
            try:
                cold = await service.handle("POST", "/task", body)
                blocker = asyncio.ensure_future(
                    service.scheduler.submit(("blocker",), hold),
                )
                for _ in range(2000):  # until the blocker holds the worker
                    if started.is_set():
                        break
                    await asyncio.sleep(0.005)
                assert started.is_set()
                warm = await asyncio.wait_for(
                    service.handle("POST", "/task", body), 5,
                )
                held = not blocker.done()
            finally:
                release.set()  # never leave the worker thread blocked
            await asyncio.wait_for(blocker, 30)
            return cold, warm, held, service.scheduler.stats.snapshot()

        (_, cold, _), (status, warm, _), held, stats = run_service(main)

        assert held
        assert status == 200
        expected = count_homomorphisms_brute(cycle_graph(4), host)
        assert (cold["value"], cold["cached"]) == (expected, False)
        assert (warm["value"], warm["cached"], warm["version"]) == (expected, True, 0)
        assert stats["executed"] == 2  # the cold count and the blocker
        assert stats["cached"] == 1
        assert identity_holds(stats)

    def test_read_your_writes_on_a_warm_cache(self):
        host = random_graph(10, 0.4, seed=5)
        pattern = cycle_graph(4)
        body = task_to_wire(HomCountTask(pattern, "hosts"))
        edge = next(
            (u, v) for u in host.vertices() for v in host.vertices()
            if u < v and not host.has_edge(u, v)
        )
        updated = host.copy()
        updated.add_edge(*edge)
        before = count_homomorphisms_brute(pattern, host)
        after = count_homomorphisms_brute(pattern, updated)
        assert before != after

        async def main(service):
            service.registry.register_graph("hosts", host)
            replies = [await service.handle("POST", "/task", body) for _ in range(2)]
            status, update, _ = await service.handle(
                "POST", "/target-update",
                {"target": "hosts", "add_edges": [list(edge)]},
            )
            assert (status, update["version"]) == (200, 1)
            replies += [await service.handle("POST", "/task", body) for _ in range(2)]
            return [reply for _, reply, _ in replies], service.scheduler.stats.snapshot()

        (cold, warm, fresh, rewarm), stats = run_service(main)

        assert (cold["version"], cold["value"], cold["cached"]) == (0, before, False)
        assert (warm["version"], warm["value"], warm["cached"]) == (0, before, True)
        assert (fresh["version"], fresh["value"]) == (1, after)
        assert (rewarm["version"], rewarm["value"], rewarm["cached"]) == (1, after, True)
        assert identity_holds(stats)

    def test_restart_reads_the_store_on_a_worker_then_the_probe_answers(self, tmp_path):
        host = random_graph(10, 0.4, seed=5)
        body = task_to_wire(HomCountTask(cycle_graph(4), "hosts"))

        def serve(requests: int):
            async def main(service):
                service.registry.register_graph("hosts", host)
                steps = []
                for _ in range(requests):
                    _, reply, _ = await service.handle("POST", "/task", body)
                    steps.append((
                        reply,
                        service.scheduler.stats.snapshot(),
                        service.engine.stats_summary(),
                    ))
                return steps

            return run_service(main, data_dir=str(tmp_path))

        ((first, _, engine),) = serve(1)
        assert first["cached"] is False
        assert engine["counts_executed"] == 1

        (reread, stats1, engine1), (probed, stats2, engine2) = serve(2)
        # The probe never reads disk: the first request after the restart
        # misses it and a worker finds the count in the store...
        assert (stats1["executed"], stats1["cached"]) == (1, 0)
        assert reread["cached"] is True
        assert reread["value"] == first["value"]
        assert engine1["counts_executed"] == 0
        assert engine1["persistent_count_hits"] == 1
        # ...which loads it into memory, where the probe answers the repeat.
        assert (stats2["executed"], stats2["cached"]) == (1, 1)
        assert probed["cached"] is True
        assert probed["value"] == first["value"]
        assert engine2["counts_executed"] == 0
        assert engine2["persistent_count_requests"] == engine1["persistent_count_requests"]
        assert identity_holds(stats2)

    @pytest.mark.parametrize("inline", [False, True], ids=["dataset", "inline"])
    def test_hit_replies_equal_the_worker_path(self, inline):
        host = random_graph(10, 0.4, seed=5)
        body = task_to_wire(HomCountTask(cycle_graph(4), host if inline else "hosts"))

        async def main(service):
            service.registry.register_graph("hosts", host)
            await service.handle("POST", "/task", body)  # cold, on a worker
            hits = {}
            for path in ("/count", "/task"):
                hits[path] = (await service.handle("POST", path, body))[1]
            stats = service.scheduler.stats.snapshot()
            task = task_from_wire(body)
            worker = await service.scheduler.submit(
                ("worker-path",), lambda: service.session.run(task),
            )
            return hits, worker, stats

        hits, worker, stats = run_service(main)

        assert (stats["executed"], stats["cached"]) == (1, 2)
        assert worker.cached is True
        assert hits["/count"] == result_to_payload(worker)
        assert without_timing(hits["/task"]) == without_timing(result_to_wire(worker))


class TestWarmProbeIsMemoryOnly:
    """``LocalExecutor.cached`` answers only from the engine's memory."""

    @staticmethod
    def forbid_real_work(monkeypatch, store=None):
        """Make compiling, canonicalising and store reads raise."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the probe did more than a memory lookup")

        monkeypatch.setattr("repro.engine.cache.canonical_form", forbidden)
        monkeypatch.setattr("repro.engine.engine.compile_plan", forbidden)
        if store is not None:
            monkeypatch.setattr(store, "load_count", forbidden)
            monkeypatch.setattr(store, "load_plan", forbidden)

    def test_cold_count_misses(self, monkeypatch):
        engine = HomEngine()
        executor = LocalExecutor(engine=engine)
        task = HomCountTask(cycle_graph(4), random_graph(8, 0.4, seed=1))
        with monkeypatch.context() as patched:
            self.forbid_real_work(patched)
            assert executor.cached(task) is None
        assert engine.stats_summary()["count_requests"] == 0
        assert engine.stats_summary()["plan_requests"] == 0
        assert executor.run(task).cached is False
        hit = executor.cached(task)
        assert (hit.value, hit.cached) == (executor.run(task).value, True)

    def test_store_only_count_misses(self, tmp_path, monkeypatch):
        pattern, host = cycle_graph(4), random_graph(8, 0.4, seed=1)
        writer = HomEngine(store=PersistentStore(tmp_path))
        writer.count(pattern, host)
        writer.store.close()
        store = PersistentStore(tmp_path)
        executor = LocalExecutor(engine=HomEngine(store=store))
        task = HomCountTask(pattern, host)
        executor.engine.plan_for(pattern)  # plan in memory, count on disk only
        with monkeypatch.context() as patched:
            self.forbid_real_work(patched, store)
            assert executor.cached(task) is None
        assert store.stats.count_requests == 0
        result = executor.run(task)
        assert result.cached is True  # the worker path does read the store
        assert store.stats.count_hits == 1
        store.close()

    def test_unmemoised_canonical_key_misses(self, monkeypatch):
        executor = LocalExecutor(engine=HomEngine())
        host = random_graph(8, 0.4, seed=1)
        executor.run(HomCountTask(cycle_graph(4), host))
        relabelled = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        task = HomCountTask(relabelled, host)
        with monkeypatch.context() as patched:
            self.forbid_real_work(patched)
            assert executor.cached(task) is None
        # Canonicalising on a worker finds the isomorphic pattern's count.
        assert executor.run(task).cached is True

    def test_other_kinds_never_hit(self, monkeypatch):
        kg = KnowledgeGraph(
            vertices={"u1": "User", "u2": "User", "m1": "Item"},
            triples=[("u1", "likes", "m1"), ("u2", "likes", "m1")],
        )
        host = random_graph(8, 0.4, seed=1)
        text = "q(x1, x2) :- E(x1, y), E(x2, y)"
        tasks = [
            AnswerCountTask(text, host),
            KgAnswerCountTask(kg_query_from_triples([("x", "likes", "z")], ["x"]), kg),
            WlDimensionTask(text),
            AnalyzeTask(text),
            TaskBatch([HomCountTask(cycle_graph(4), host)]),
        ]
        executor = LocalExecutor(engine=HomEngine())
        for task in tasks:  # warm every cache each kind touches
            if isinstance(task, TaskBatch):
                executor.run_batch(task)
            else:
                executor.run(task)
        with monkeypatch.context() as patched:
            self.forbid_real_work(patched)
            for task in tasks:
                assert executor.cached(task) is None, task

    def test_service_probes_only_single_hom_counts(self):
        host = random_graph(9, 0.4, seed=5)
        text = "q(x1, x2) :- E(x1, y), E(x2, y)"
        requests = [
            ("/count-answers", {"query": text, "target": "hosts"}),
            ("/wl-dim", {"query": text}),
            ("/analyze", {"query": text}),
            ("/task", task_to_wire(TaskBatch([HomCountTask(cycle_graph(4), "hosts")]))),
        ]

        async def main(service):
            service.registry.register_graph("hosts", host)
            for _ in range(2):  # the second round finds every cache warm
                for path, body in requests:
                    status, reply, _ = await service.handle("POST", path, body)
                    assert status == 200, reply
            return service.scheduler.stats.snapshot()

        stats = run_service(main)

        assert (stats["executed"], stats["cached"]) == (2 * len(requests), 0)
        assert identity_holds(stats)

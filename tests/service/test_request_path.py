"""In-process tests of the one counting request path.

``POST /task`` and its verb aliases (``/count``, ``/count-answers``,
``/wl-dim``, ``/analyze``) reach the scheduler through one handler under
one key: the request body plus the content of the datasets it names.
Each test holds the service's only scheduler worker with a blocker job
while its requests are admitted, so every request is in flight at once
and the coalescing outcome does not depend on timing.
"""

from __future__ import annotations

import asyncio
import threading

from repro.api import HomCountTask
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.graphs.io import to_graph6
from repro.homs.brute_force import count_homomorphisms_brute
from repro.kg import kg_query_from_triples
from repro.queries.answers import count_answers
from repro.queries.parser import parse_query
from repro.service.server import CountingService, task_body
from repro.service.wire import kg_query_to_spec, task_from_wire, task_to_wire
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

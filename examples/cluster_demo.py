"""Demo — the multi-process cluster riding through a worker kill, live.

Launches the full topology (router + 3 supervised worker processes),
registers a dataset and a maintained subscription, then SIGKILLs one
worker *while counting requests keep flowing* — and shows that not a
single request fails: the router resubmits in-flight work to the
surviving workers, the supervisor respawns the dead one, replays the
replication log into it, and re-admits it under its old id, so it owns
the same keys again.

Run with::

    PYTHONPATH=src python examples/cluster_demo.py
"""

from __future__ import annotations

import threading
import time

from repro.cluster import Cluster
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.service.client import ServiceClient


def main() -> None:
    host = random_graph(10, 0.4, seed=7)
    patterns = [path_graph(3), cycle_graph(4), cycle_graph(5), path_graph(5)]

    with Cluster(workers=3) as cluster:
        client = ServiceClient(port=cluster.port, timeout=60.0)
        client.wait_ready(timeout=30.0)
        pids = cluster.worker_pids()
        print(f"cluster on port {cluster.port}, workers: {pids}\n")

        client.register_graph("hosts", host)
        sub = client.subscribe("hosts", pattern=cycle_graph(3))
        print(f"registered 'hosts'; subscription {sub['id']} "
              f"maintains triangle count = {sub['value']}\n")

        # -- continuous load ------------------------------------------------
        sent, failed = [0], [0]
        done = threading.Event()

        def load() -> None:
            local = ServiceClient(port=cluster.port, timeout=60.0)
            i = 0
            while not done.is_set():
                i += 1
                try:
                    local.count(patterns[i % len(patterns)], "hosts")
                    sent[0] += 1
                except Exception:
                    failed[0] += 1

        threads = [threading.Thread(target=load) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(1.0)

        # -- chaos ----------------------------------------------------------
        victim_pid = cluster.kill_worker("w1")
        print(f"SIGKILL worker w1 (pid {victim_pid}) under load ...")
        time.sleep(2.5)  # requests keep flowing through the survivors
        done.set()
        for thread in threads:
            thread.join()

        print(f"requests during the experiment: {sent[0]} ok, "
              f"{failed[0]} failed\n")

        # -- recovery -------------------------------------------------------
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if (
                cluster.worker_pids().get("w1") not in (None, victim_pid)
                and "w1" in cluster.router.worker_ids
            ):
                break
            time.sleep(0.2)
        print(f"workers after respawn: {cluster.worker_pids()}")
        status, payload = client.healthz()
        print(f"aggregated health: {payload['status']} (HTTP {status})")
        for name, probe in sorted(payload["probes"].items()):
            print(f"  {probe['status']:<9} {name}")

        # The respawned worker replayed the log: dataset + subscription
        # exist everywhere, so updates still fan out to all 3 replicas.
        update = client.target_update("hosts", add_edges=[(0, 5)])
        print(f"\ntarget-update after recovery: version {update['version']}, "
              f"{len(update['subscriptions'])} maintained count(s) refreshed")
        stats = client.stats()["cluster"]
        print("per-worker requests:",
              {w["id"]: w["requests"] for w in stats["workers"]})
        assert failed[0] == 0, "a worker kill must never surface to clients"
        print("\nzero client-visible failures — the kill cost latency only")


if __name__ == "__main__":
    main()

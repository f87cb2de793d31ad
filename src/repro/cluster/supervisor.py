"""Worker lifecycle: spawn, watch, respawn, re-admit.

The supervisor owns N worker subprocesses (``repro.cluster.worker``) and
the router's worker membership:

* **spawn** — workers bind port 0 and announce their endpoint on stdout;
  the supervisor parses the announce line, waits for ``/readyz``, then
  asks the router to *admit* the worker (which replays the replication
  log first, so a late joiner arrives at the committed dataset state);
  a worker that does not announce or answer within ``SPAWN_TIMEOUT_S``
  fails the spawn;
* **watch** — a monitor task polls child liveness; an exited worker is
  demoted immediately.  Demotion is what makes SIGKILL
  invisible to clients: the router's retry loop resubmits in-flight
  counting requests to the surviving owners (counting is idempotent), so
  a kill costs latency, never an error;
* **respawn** — dead workers come back as a fresh process under the same
  stable worker id (``w0`` … ``wN``); rendezvous hashing ranks workers
  by id, so the respawned worker owns the same keys — the cache affinity
  of its key range survives the restart.  A budget of ``RESPAWN_LIMIT``
  respawns guards against crash loops.

:class:`Cluster` is the in-process facade used by tests, benchmarks, and
the demo, on :class:`~repro.service.server.BackgroundServer`'s
daemon-thread harness; :func:`run_cluster` is the blocking entry behind
``repro cluster``, on ``repro serve``'s runner.  Both serve the router
with the service's own :class:`~repro.service.server.ServiceServer`.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import sys

import repro
from repro.obs import get_logger, log_event
from repro.cluster.router import ClusterRouter, http_call
from repro.cluster.worker import ANNOUNCE_PREFIX
from repro.service.server import ServiceServer, ServingThread, serve_blocking

__all__ = ["WorkerProcess", "Supervisor", "Cluster", "run_cluster"]

_log = get_logger("cluster.supervisor")

#: Seconds a spawned worker has to announce its port, then to answer.
SPAWN_TIMEOUT_S = 30.0
#: Respawns per supervisor lifetime before a crash loop is left dead.
RESPAWN_LIMIT = 5


class WorkerProcess:
    """One supervised subprocess and its announced endpoint."""

    def __init__(self, worker_id: str, generation: int = 0) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.process: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None

    def kill(self) -> None:
        if self.alive:
            try:
                self.process.kill()
            except ProcessLookupError:
                pass


class Supervisor:
    """Spawn and keep N workers admitted to a router's ring."""

    def __init__(
        self,
        router: ClusterRouter,
        workers: int = 2,
        host: str = "127.0.0.1",
        data_dir: str | None = None,
        scheduler_workers: int = 4,
        max_queue: int = 256,
    ) -> None:
        self.router = router
        self.host = host
        self.data_dir = data_dir
        self.scheduler_workers = scheduler_workers
        self.max_queue = max_queue
        self.workers: dict[str, WorkerProcess] = {
            f"w{i}": WorkerProcess(f"w{i}") for i in range(workers)
        }
        self.respawns = 0
        self._monitor_task: asyncio.Task | None = None
        self._respawning: set[str] = set()
        self._stopping = False
        router.on_suspect = self._on_suspect

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        for worker in self.workers.values():
            await self._spawn(worker)
        self._monitor_task = asyncio.create_task(self._monitor())

    async def stop(self) -> None:
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for worker in self.workers.values():
            self.router.demote_worker(worker.worker_id, reason="shutdown")
            if worker.alive:
                worker.process.terminate()
        for worker in self.workers.values():
            if worker.process is not None:
                try:
                    await asyncio.wait_for(worker.process.wait(), timeout=5.0)
                except asyncio.TimeoutError:
                    worker.kill()
                    await worker.process.wait()

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    async def _spawn(self, worker: WorkerProcess) -> None:
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else src_root
        )
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--host", self.host, "--port", "0",
            "--workers", str(self.scheduler_workers),
            "--max-queue", str(self.max_queue),
        ]
        if self.data_dir:
            argv += ["--data-dir", self.data_dir]
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=env,
        )
        worker.process = process
        worker.host, worker.port = await asyncio.wait_for(
            self._read_announce(worker), timeout=SPAWN_TIMEOUT_S,
        )
        await self._wait_ready(worker)
        admitted = await self.router.admit_worker(
            worker.worker_id, worker.host, worker.port,
        )
        if not admitted:
            # Replay failed: the process is in an unknown state — kill it
            # and let the monitor's respawn path try again from scratch.
            worker.kill()
            raise RuntimeError(
                f"worker {worker.worker_id} failed replication replay",
            )
        log_event(
            _log, logging.INFO, "worker-admitted",
            worker=worker.worker_id, port=worker.port, pid=process.pid,
            generation=worker.generation,
        )

    async def _read_announce(self, worker: WorkerProcess) -> tuple[str, int]:
        assert worker.process is not None and worker.process.stdout is not None
        while True:
            line = await worker.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"worker {worker.worker_id} exited before announcing "
                    f"(rc={worker.process.returncode})",
                )
            text = line.decode("utf-8", "replace").strip()
            if ANNOUNCE_PREFIX in text:
                endpoint = text.split("http://", 1)[1].split()[0]
                host, _, port = endpoint.rpartition(":")
                return host, int(port)

    async def _wait_ready(self, worker: WorkerProcess) -> None:
        deadline = asyncio.get_running_loop().time() + SPAWN_TIMEOUT_S
        while True:
            try:
                status, _ = await http_call(
                    worker.host, worker.port, "GET", "/readyz", timeout=5.0,
                )
                if status in (200, 503):
                    # Ready, or up-but-degraded: both mean the HTTP stack
                    # answers; replay/admission decides the rest.
                    return
            except (OSError, asyncio.TimeoutError, ValueError):
                pass
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"worker {worker.worker_id} not ready within "
                    f"{SPAWN_TIMEOUT_S}s",
                )
            await asyncio.sleep(0.05)

    # ------------------------------------------------------------------
    # monitoring + respawn
    # ------------------------------------------------------------------
    def _on_suspect(self, worker_id: str) -> None:
        """Router demoted a worker mid-request: make the process state
        match (kill a half-alive process) and schedule the respawn."""
        worker = self.workers.get(worker_id)
        if worker is None or self._stopping:
            return
        worker.kill()
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        loop.call_soon(self._ensure_respawn, worker)

    def _ensure_respawn(self, worker: WorkerProcess) -> None:
        if (
            self._stopping
            or worker.worker_id in self._respawning
            or self.respawns >= RESPAWN_LIMIT
        ):
            return
        self._respawning.add(worker.worker_id)
        asyncio.create_task(self._respawn(worker))

    async def _respawn(self, worker: WorkerProcess) -> None:
        try:
            if worker.process is not None:
                await worker.process.wait()  # reap before replacing
            self.respawns += 1
            worker.generation += 1
            log_event(
                _log, logging.WARNING, "worker-respawn",
                worker=worker.worker_id, generation=worker.generation,
                respawns=self.respawns,
            )
            await self._spawn(worker)
        except (RuntimeError, TimeoutError, OSError) as error:
            log_event(
                _log, logging.ERROR, "worker-respawn-failed",
                worker=worker.worker_id, error=str(error),
            )
        finally:
            self._respawning.discard(worker.worker_id)

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(0.2)
            for worker in self.workers.values():
                if worker.alive or worker.worker_id in self._respawning:
                    continue
                if self._stopping:
                    return
                self.router.demote_worker(worker.worker_id, reason="exited")
                self._ensure_respawn(worker)

    def summary(self) -> dict:
        return {
            "workers": {
                wid: {
                    "alive": worker.alive,
                    "pid": worker.process.pid if worker.process else None,
                    "port": worker.port,
                    "generation": worker.generation,
                }
                for wid, worker in self.workers.items()
            },
            "respawns": self.respawns,
        }


class Cluster(ServingThread):
    """The whole topology (router + supervisor + workers) in one object.

    Runs its own asyncio loop in a daemon thread, like
    :class:`~repro.service.server.BackgroundServer`, so tests, benchmarks
    and the demo drive a real multi-process cluster through the plain
    blocking :class:`~repro.service.client.ServiceClient`.
    """

    _thread_name = "repro-cluster"
    _what = "cluster"
    _start_timeout = 120.0
    _stop_timeout = 60.0

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | None = None,
        scheduler_workers: int = 4,
        max_queue: int = 256,
        request_timeout: float = 60.0,
    ) -> None:
        super().__init__(host, port)
        self.router: ClusterRouter | None = None
        self.supervisor: Supervisor | None = None
        self._config = {
            "workers": workers,
            "data_dir": data_dir,
            "scheduler_workers": scheduler_workers,
            "max_queue": max_queue,
        }
        self._request_timeout = request_timeout

    def _build(self) -> list:
        self.router = ClusterRouter(request_timeout=self._request_timeout)
        self.supervisor = Supervisor(self.router, host=self.host, **self._config)
        return [
            self.supervisor,
            ServiceServer(self.router, host=self.host, port=self.port),
        ]

    # ------------------------------------------------------------------
    # chaos helpers (tests + demo)
    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[str, int | None]:
        if self.supervisor is None:
            return {}
        return {
            wid: (worker.process.pid if worker.process else None)
            for wid, worker in self.supervisor.workers.items()
        }

    def kill_worker(self, worker_id: str, sig: int = signal.SIGKILL) -> int:
        """SIGKILL one worker (chaos testing); returns the dead pid."""
        assert self.supervisor is not None
        worker = self.supervisor.workers[worker_id]
        assert worker.process is not None
        pid = worker.process.pid
        os.kill(pid, sig)
        return pid


def run_cluster(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    data_dir: str | None = None,
    scheduler_workers: int = 4,
    max_queue: int = 256,
    announce=print,
) -> int:
    """Blocking entry point behind ``repro cluster``."""

    def build() -> list:
        router = ClusterRouter()
        supervisor = Supervisor(
            router, workers=workers, host=host, data_dir=data_dir,
            scheduler_workers=scheduler_workers, max_queue=max_queue,
        )
        return [supervisor, ServiceServer(router, host=host, port=port)]

    return serve_blocking(
        build, host, port,
        lambda bound: f"repro cluster listening on http://{host}:{bound} "
        f"({workers} workers"
        + (f", persistent cache: {data_dir})" if data_dir else ")"),
        announce,
    )

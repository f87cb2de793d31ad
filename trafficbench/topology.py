"""Server and cluster processes under test, and what /proc says about them.

A :class:`Topology` is ``repro serve`` or ``repro cluster --workers 2``
started as a subprocess in its own session, bound to port 0; the port is
read from the standard ``... listening on http://host:port`` announce
line.  The client never shares an interpreter (or a GIL) with the server.

Every process a run starts carries ``TRAFFICBENCH_RUN=<pid of the run>``
in its environment, so :func:`marked_processes` finds anything left
behind — including cluster
workers a router spawned — and :meth:`ProcessTracker.stop_all` ends them
when a run fails or is interrupted.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from repro.service.client import ServiceClient

MARKER_ENV = "TRAFFICBENCH_RUN"
_ANNOUNCE = "listening on http://"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Worker processes behind a ``repro cluster`` router.
WORKERS = 2
#: How long a topology may take to announce its port and become ready.
START_TIMEOUT_S = 90.0


def _stat_fields(pid) -> list[bytes] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None


def _alive(pid) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != b"Z"


def marked_processes(marker: str) -> list[int]:
    """Pids of live processes whose environment carries ``marker``."""
    needle = f"{MARKER_ENV}={marker}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
        except OSError:
            continue
        if needle in environ and _alive(entry):
            found.append(int(entry))
    return found


def _descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _stat_fields(entry) if entry.isdigit() else None
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


def _cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ProcessTracker:
    """Owns every topology a run starts; stops them all on any exit path."""

    def __init__(self, workdir: str, marker: str) -> None:
        self.workdir = workdir
        self.marker = marker
        self._live: list[Topology] = []

    def start(self, kind: str) -> "Topology":
        topology = Topology(kind, self)
        self._live.append(topology)
        topology.start()
        return topology

    def forget(self, topology: "Topology") -> None:
        if topology in self._live:
            self._live.remove(topology)

    def stop_all(self) -> None:
        for topology in list(self._live):
            topology.stop()
        deadline = time.monotonic() + 10.0
        while marked_processes(self.marker) and time.monotonic() < deadline:
            for pid in marked_processes(self.marker):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)


class Topology:
    """One ``repro serve`` or ``repro cluster`` process tree."""

    def __init__(self, kind: str, tracker: ProcessTracker) -> None:
        if kind not in ("serve", "cluster"):
            raise ValueError(f"unknown topology {kind!r}")
        self.kind = kind
        self.tracker = tracker
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.log_path: str | None = None
        self._pids: list[int] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root
        env["TMPDIR"] = self.tracker.workdir
        env[MARKER_ENV] = self.tracker.marker
        env.pop("REPRO_LOG", None)
        argv = [
            sys.executable, "-u", "-m", "repro.cli", self.kind,
            "--host", "127.0.0.1", "--port", "0",
        ]
        if self.kind == "cluster":
            argv += ["--workers", str(WORKERS)]
        index = len(os.listdir(self.tracker.workdir))
        self.log_path = os.path.join(self.tracker.workdir, f"{self.kind}-{index}.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv, cwd=self.tracker.workdir, env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.port = self._await_announce()
        self.client().wait_ready(timeout=START_TIMEOUT_S)
        self._pids = _descendants(self.process.pid)

    def _await_announce(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                for line in log:
                    if _ANNOUNCE in line:
                        endpoint = line.split(_ANNOUNCE, 1)[1].split()[0]
                        return int(endpoint.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"repro {self.kind} did not announce a port (log: {self.log_path})",
        )

    def stop(self) -> None:
        """SIGTERM the process group, SIGKILL what is left, reap."""
        if self.process is None:
            return
        pids = set(self._pids) | set(_descendants(self.process.pid))
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            try:
                os.killpg(self.process.pid, sig)
            except ProcessLookupError:
                pass
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
            break
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _alive(pid)]
            if not alive:
                break
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.02)
        self.process = None
        self.tracker.forget(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=60.0)

    @property
    def pids(self) -> list[int]:
        """The serving processes: the root plus any cluster workers."""
        return [pid for pid in self._pids if _alive(pid)]

    def cpu_seconds(self) -> float:
        return sum(_cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over every serving process."""
        return sum(_peak_rss_mb(pid) for pid in self.pids)


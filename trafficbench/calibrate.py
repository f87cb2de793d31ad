"""Effective cores: how much two CPU-bound processes really overlap.

``os.cpu_count()`` reports what the kernel exposes, not what a shared or
throttled box delivers.  A fixed pure-Python loop runs once alone and then
twice at the same time; ``2 × alone / together`` is ~2.0 on two free
cores and ~1.0 when the two processes take turns on one.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

_BURN = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "start = time.perf_counter()\n"
    "total = 0\n"
    "for i in range({loops}):\n"
    "    total += i * i\n"
    "print(time.perf_counter() - start)\n"
)


def _burn(count: int, loops: int) -> list[float]:
    code = _BURN.format(loops=loops)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(count)
    ]
    try:
        for proc in procs:  # release them together
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return [float(proc.communicate(timeout=60)[0]) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def effective_cores(loops: int = 1_500_000, rounds: int = 2) -> float:
    """Calibrated parallelism of two CPU-bound processes (≈0.5–1 s).

    Best of ``rounds`` for both sides, so a one-off stall on a shared box
    does not decide the figure.
    """
    alone = min(_burn(1, loops)[0] for _ in range(rounds))
    together = min(statistics.mean(_burn(2, loops)) for _ in range(rounds))
    return round(min(2.0, 2.0 * alone / together), 3)


def cpu_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests since boot, summed over
    this guest's CPUs (``/proc/stat`` steal); 0 where not reported."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


"""Tiny end-to-end runs of every workload against real server processes."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from trafficbench.spec import END_TO_END, PER_LAYER, WORKLOADS
from trafficbench.topology import marked_processes

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "trafficbench", "run.py")


def _start(workload: str, trace: int, seconds: float = 1.0) -> subprocess.Popen:
    """A tiny run; the processes it spawns are marked with its pid."""
    return subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_leaves_nothing(workload, trace):
    proc = _start(workload, trace)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, stderr[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, stdout[-2000:]
    assert result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
    meta = json.loads(stdout.strip().splitlines()[-2])["meta"]
    assert 0 < meta["effective_cores"] <= 2
    assert marked_processes(str(proc.pid)) == []


def test_interrupted_run_stops_every_process():
    proc = _start("routed_counts", 0, seconds=60)
    marker = str(proc.pid)
    try:
        deadline = time.monotonic() + 60
        while len(marked_processes(marker)) < 3 and time.monotonic() < deadline:
            time.sleep(0.1)  # router + 2 workers up
        assert len(marked_processes(marker)) >= 3
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in stdout
    assert marked_processes(marker) == []


def test_run_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "trafficbench"), tmp_path / "trafficbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "trafficbench/run.py", "--workload", "hot_counts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

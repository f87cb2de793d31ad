"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 trafficbench/spread.py --workload hot_counts --seeds 10 --seconds 10

Runs ``run.py`` once per seed (1..N), one after another, and prints each
metric's median and quartile spread ((Q3 - Q1) / median) next to the
bound in ``BENCHMARK.json`` — the acceptance test a benchmark change has
to pass before anyone relies on its numbers.  Each run's CPU steal is
printed too: on a shared host it, not the code, explains most spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from trafficbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m.get("bound") for m in json.load(handle)["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for seed in range(1, args.seeds + 1):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        walls.append(time.monotonic() - start)
        result, meta = json.loads(out[-1]), json.loads(out[-2])["meta"]
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT {meta['failures']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, "
              f"CPU stolen per window {meta.get('steal_s')}", flush=True)
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:32} {statistics.median(series):12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

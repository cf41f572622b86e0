#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload query --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, for the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric
its median over the runs and the distance between the first and third
quartile (``statistics.quantiles(n=4)``) as a share of that median, next
to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        output = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
        result = json.loads(output.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()),
              flush=True)

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(f"{name:16s} median {median:12.4f}  spread {spread:7.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

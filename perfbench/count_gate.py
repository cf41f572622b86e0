#!/usr/bin/env python3
"""Deterministic cost-count gate over the traced run.

Usage (from the repository root)::

    python3 perfbench/count_gate.py [--record]

For each workload, runs the traced run twice with seed 1, in two
fresh processes, and checks that every count metric (calls, blocks,
bytes, requests per op) is identical in both. It then compares the
counts with ``count_baseline.json`` (recorded with seed 1): a count that
rises above its baseline fails the gate, a count that falls is reported.
``--record`` writes this run's counts as the new baseline, after a change
that lowers a count. Wall-clock times are too noisy to gate on; these
counts are not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "count_baseline.json"
COUNT_UNITS = ("count", "B")
#: The seed ``count_baseline.json`` was recorded with.
SEED = 1
WORKLOADS = ("query", "transact", "swap")
#: Counts that follow the printed length of wall-clock times: HTLC lock
#: records carry their timeout and creation time as JSON floats, whose
#: repr can gain or lose digits, so frame bytes move by up to a few dozen
#: per op between runs (and a ChaCha20 block count can move by one).
#: Reported, never gated.
CLOCK_DEPENDENT = {
    ("swap", "net.frame_bytes_per_op"),
    ("swap", "crypto.chacha20.blocks_per_op"),
}


def traced_counts(workload: str) -> dict[str, float]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    output = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(output.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} traced ops failed")
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
        if metric["unit"] in COUNT_UNITS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the counts of this run as the new baseline")
    args = parser.parse_args()
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    failures = 0
    recorded = {}
    for workload in WORKLOADS:
        first = traced_counts(workload)
        second = traced_counts(workload)
        differing = sorted(name for name in first if first[name] != second.get(name))
        recorded[workload] = first
        for name in differing:
            gated = (workload, name) not in CLOCK_DEPENDENT
            failures += gated
            print(f"{workload}: {name} differs between runs: {first[name]} vs {second[name]}"
                  + ("" if gated else " (clock-dependent, not gated)"))
        for name, value in sorted(first.items()):
            reference = baseline.get(workload, {}).get(name)
            if reference is None or value == reference:
                continue
            rose = value > reference and (workload, name) not in CLOCK_DEPENDENT
            failures += rose
            print(f"{workload}: {name} {'ROSE' if rose else 'moved'}: {reference} -> {value}")
        print(f"{workload}: {len(first)} counts, {len(differing)} not repeatable")
    if args.record:
        BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print("count gate " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

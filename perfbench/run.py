#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced run that reports the per-layer split and
writes its spans to ``perfbench/out/``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ("setup_s", "latency_p50_ms", "latency_p90_ms", "ops_per_s", "peak_rss_mb")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "transact", "swap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"cannot find the program: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_traced, run_untraced, samples_beyond

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    if args.trace:
        trace_path = workdir / f"trace-{args.workload}-{args.seed}.jsonl"
        outcome = run_traced(args.workload, args.seed, workdir, trace_path)
        reported = sorted(outcome["metrics"])
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        print(f"traced entry points bound at {len(outcome['binding_sites'])} sites")
    else:
        outcome = run_untraced(args.workload, args.seed, args.seconds, workdir)
        reported = list(END_TO_END)
        print("set-ups (s): " + ", ".join(f"{s:.3f}" for s in outcome["setups_s"]))
    print(f"workload {args.workload}, seed {args.seed}: {outcome['attempted']} ops attempted, "
          f"{outcome['failed']} failed, {outcome['samples']} latency samples "
          f"({samples_beyond(outcome['samples'], 0.90)} beyond p90)")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name][0], "unit": outcome["metrics"][name][1]}
            for name in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

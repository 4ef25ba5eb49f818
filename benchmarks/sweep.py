#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/sweep.py --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

Runs ``benchmarks/run.py`` once per (workload, seed), one at a time, and
prints for every metric its median, quartiles and spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) over the
median. ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("fading-mc", "deep-search", "wide-search", "wide-region")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary: dict = {}
    failures = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                print(f"FAILED {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        for name, s in summary[workload].items():
            print(f"{workload:12s} {name:30s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

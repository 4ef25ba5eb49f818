#!/usr/bin/env python3
"""Decision benchmark for fhtp: one process, one client, closed loop.

Usage, from the root of an fhtp checkout:

    python3 benchmarks/run.py --workload deep-search --seed 1 --seconds 20 --trace 0

Each request is one ``fhtp check`` decision made in-process (see
``harness.decide``), on scenario documents drawn from ``--seed`` by
``workloads.py``. The program is imported from ``src/`` of the checkout the
script sits in; without it the command fails.

``--trace 0`` measures latency and throughput with nothing patched.
``--trace 1`` decides requests for half of ``--seconds`` untraced, replays
the same requests with spans around every layer call, and reports the
per-layer numbers; node counts must agree between the two passes.

Every answer is checked (see ``harness.Gate``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the environment block. The
same record, with the environment and the spans of a traced run, is written
under ``.bench_out/`` of the checkout. The exit code is 1 when any request
failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("fading-mc", "deep-search", "wide-search", "wide-region")
MIN_REQUESTS = 100  # so that p90 has at least 10 samples beyond it
MIN_TRACED_REQUESTS = 20
SETUP_REPEATS = 3
# the first requests of a run that the brute-force oracle re-solves
ORACLE_SAMPLE = {"fading-mc": 40, "deep-search": 4, "wide-search": 40, "wide-region": 40}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import fhtp from it."""
    package = SRC / "fhtp" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"benchmark: {package} not found; run from an fhtp checkout")
    sys.path.insert(0, str(SRC))
    import fhtp

    if Path(fhtp.__file__).resolve() != package.resolve():
        raise SystemExit(f"benchmark: imported fhtp from {fhtp.__file__}, expected {package}")


def _import_seconds() -> float:
    """Time to import fhtp (and numpy) in a fresh interpreter."""
    code = (
        "import sys, time; start = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); import fhtp; print(time.perf_counter() - start)"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(args, requests: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()

    import harness
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    # set-up: import in a fresh interpreter, draw the first requests, warm up;
    # each part is repeated and its median taken
    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    prepare = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        stream = harness.requests(WORKLOADS[args.workload], args.seed)
        stream = itertools.chain([next(stream)], stream)
        harness.warm_up()
        prepare.append(time.perf_counter() - began)
    setup_s = statistics.median(imports) + statistics.median(prepare)

    gc.collect()
    gate = harness.Gate(ORACLE_SAMPLE[args.workload])
    probe = SpeedProbe()
    extra: dict = {}
    if args.trace == 0:
        outcomes = harness.closed_loop(stream, args.seconds, MIN_REQUESTS, probe, gate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate.run_oracle()
        metrics = harness.latency_metrics(outcomes)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        extra["decide_ms_samples"] = (len(outcomes), "count")
        for name, value in harness.latency_metrics(outcomes, scaled=False).items():
            extra[f"wall.{name}"] = value
    else:
        outcomes = harness.closed_loop(stream, args.seconds / 2, MIN_TRACED_REQUESTS, probe, gate)
        probe = SpeedProbe()
        tracer = Tracer()
        replay = harness.requests(WORKLOADS[args.workload], args.seed)
        traced = harness.traced_replay(replay, len(outcomes), tracer, probe)
        for index in harness.count_mismatches(outcomes, traced):
            gate.fail(index, "node counts differ between traced and untraced runs")
        gate.run_oracle()
        spans = tracer.finished()
        metrics = harness.span_metrics(spans, len(outcomes), probe.factor)
        metrics.update(harness.search_metrics(outcomes))
        metrics["oracle.checked"] = (gate.oracle_checked, "count")
        metrics["oracle.mismatches"] = (gate.oracle_mismatches, "count")
        overhead = sum(o.scaled for o in traced) / sum(o.scaled for o in outcomes) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        extra["spans"] = (len(spans), "count")

    attempted = len(outcomes)
    failed = len(gate.failed)
    extra.update(
        {
            "fail_frac": (failed / attempted, "ratio"),
            "achievable": (sum(1 for o in outcomes if o.counts is not None and o.counts[0]), "count"),
            "oracle.refused": (gate.oracle_refused, "count"),
            "speed.kernel_ms": (probe.kernel_ms, "ms"),
            "speed.factor": (probe.factor, "ratio"),
        }
    )
    for problem in gate.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:12s} {name:30s} {value:14.6g} {unit}")

    env = _environment(args, attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, **result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

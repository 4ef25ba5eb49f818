"""Checks of the benchmark itself. Run from the checkout root with

    python -m pytest -q benchmarks

The node counts (expanded, generated, pruned) and p* are the search's
deterministic output, so two runs of one seed must repeat them exactly,
and so must a traced run.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7
REQUESTS = 3


def _run(name: str) -> tuple[list[harness.Outcome], harness.Gate]:
    gate = harness.Gate(oracle_sample=1)
    stream = harness.requests(workloads.WORKLOADS[name], SEED)
    outcomes = harness.closed_loop(stream, 0.0, REQUESTS, SpeedProbe(), gate)
    gate.run_oracle()
    return outcomes, gate


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    name = request.param
    return name, _run(name), _run(name)


def test_generators_are_seeded(runs):
    name = runs[0]
    generate = workloads.WORKLOADS[name]
    assert generate(SEED, 2) == generate(SEED, 2)
    assert generate(SEED, 2).doc != generate(SEED + 1, 2).doc
    assert generate(SEED, 2).doc != generate(SEED, 3).doc


def test_counts_repeat_across_runs_and_pass_the_gate(runs):
    _, (first, gate), (second, _) = runs
    assert gate.problems == []
    assert gate.oracle_checked == 1
    assert all(o.counts is not None for o in first)
    assert [o.counts for o in first] == [o.counts for o in second]


def test_traced_run_repeats_counts_and_covers_layers(runs):
    name, (first, _), _ = runs
    tracer = Tracer()
    stream = harness.requests(workloads.WORKLOADS[name], SEED)
    traced = harness.traced_replay(stream, len(first), tracer, SpeedProbe())
    assert harness.count_mismatches(first, traced) == []
    spans = tracer.finished()
    assert {s.layer for s in spans} >= set(harness.LAYERS)
    assert {s.request for s in spans} == {o.index for o in first}
    metrics = harness.span_metrics(spans, len(first))
    assert 0.9 < metrics["trace.coverage"][0] <= 1.0
    assert metrics["region.calls"][0] == 1.0


def test_gate_rejects_corrupted_answers(runs):
    name = runs[0]
    request = next(itertools.islice(harness.requests(workloads.WORKLOADS[name], SEED), 1))
    _, report, verified = harness.decide(request)
    assert harness.answer_problem(request, report, verified) is None
    if report.p_star is None:
        wrong = dataclasses.replace(report, certified_lower_bound=request.doc["horizon"])
    else:
        wrong = dataclasses.replace(report, p_star=report.p_star - 1)
    assert harness.answer_problem(request, wrong, verified) is not None

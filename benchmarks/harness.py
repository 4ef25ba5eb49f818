"""Closed-loop replay of decision requests, the correctness gate, and metrics.

One decision is what ``fhtp check`` does in-process: parse the scenario
document, build the channel, run ``check_achievability`` and, when the
target is achievable, ``verify_policy``. A single client sends the next
request only after the previous one has been answered.

Each answer is checked as soon as it is timed, and only a few numbers are
kept of it, so the run's memory does not grow with the number of requests
the program gets through. Only the oracle's sample is held back until the
timed phase is over.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

import fhtp
from fhtp import channel as _channel
from fhtp import policy as _policy
from fhtp import region as _region
from fhtp import scenario as _scenario
from fhtp import solver as _solver
from speed import SpeedProbe
from tracing import Span, Tracer
from workloads import Request, capacity_matrix

CHUNK = 64  # requests drawn at a time, outside the timed region

# layer functions that the traced run records spans around
TRACE_TARGETS = {
    "scenario.scenario_from_dict": (_scenario, "scenario_from_dict", None),
    "scenario.channel": (_scenario.Scenario, "channel", None),
    "channel.capacity_vector": (_channel.ChannelModel, "capacity_vector", None),
    "channel.interference_free_rate": (_channel.ChannelModel, "interference_free_rate", None),
    "region.refined_power_set": (_region, "refined_power_set", len),
    "region.capacity_set": (_region, "capacity_set", None),
    "region.enumerate_power_vectors": (_region, "enumerate_power_vectors", len),
    "region.pareto_frontier": (_region, "pareto_frontier", None),
    "solver.solve": (_solver, "solve", None),
    "policy.check_achievability": (_policy, "check_achievability", None),
    "policy.derive_policy": (_policy, "derive_policy", None),
    "policy.verify_policy": (_policy, "verify_policy", None),
}
LAYERS = ("scenario", "channel", "region", "solver", "policy")

# worked example 1 of the paper (p* = 5); deciding it warms up every layer
WARM_UP = Request(
    index=-1,
    doc={
        "num_pairs": 3,
        "horizon": 5,
        "slot_duration": 1.0,
        "power_sets": [[0.0, 2.0]] * 3,
        "noise": [0.1, 0.1, 0.1],
        "gains": [[0.5, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.7]],
        "target_rate": [1.0, 1.0, 1.0],
    },
    cutoff=False,
)


def requests(generate: Callable[[int, int], Request], seed: int) -> Iterator[Request]:
    """Requests 0, 1, 2, ... of one workload seed, drawn ``CHUNK`` at a time."""
    start = 0
    while True:
        yield from [generate(seed, i) for i in range(start, start + CHUNK)]
        start += CHUNK


@dataclass
class Outcome:
    """What a run keeps of one decision."""

    index: int
    latency: float
    counts: tuple | None  # (achievable, p*, expanded, generated, pruned); None on error
    ebf: float = 0.0
    tightness: float | None = None  # heuristic(q0) / p*, where p* is known and positive
    scaled: float = 0.0  # latency at reference speed (see speed.py)


def decide(request: Request):
    """One decision, through the package's public names.

    Names are looked up at call time, so the traced run's wrappers apply.
    """
    sc = fhtp.scenario_from_dict(request.doc)
    channel = sc.channel()
    report = fhtp.check_achievability(channel, sc.target_rate, sc.horizon, cutoff=request.cutoff)
    verified = fhtp.verify_policy(channel, report.policy).ok if report.achievable else None
    return channel, report, verified


def _backlog(doc: dict) -> np.ndarray:
    return doc["slot_duration"] * doc["horizon"] * np.asarray(doc["target_rate"], dtype=float)


def _replay(stream: Iterable[Request], run: Callable, probe: SpeedProbe, gate: Gate | None, enough) -> list[Outcome]:
    """Time ``run`` on requests from ``stream`` until ``enough(busy seconds, count)``.

    Answers go to ``gate`` when one is given; the heuristic's tightness is
    only computed then, since the traced run would record its calls.
    """
    clock = time.perf_counter
    outcomes: list[Outcome] = []
    marks = []
    busy = 0.0
    for request in stream:
        start = clock()
        try:
            channel, report, verified = run(request)
            error = None
        except Exception as exc:  # a failed decision is counted, and the loop goes on
            channel = report = verified = None
            error = f"{type(exc).__name__}: {exc}"
        latency = clock() - start
        if gate is not None:
            gate.inspect(request, channel, report, verified, error)
        outcomes.append(_keep(request, latency, channel, report, tightness=gate is not None))
        busy += latency
        marks.append(probe.tick(latency))
        if enough(busy, len(outcomes)):
            break
    for outcome, mark in zip(outcomes, marks):
        outcome.scaled = outcome.latency * probe.local_factor(mark)
    return outcomes


def _keep(request: Request, latency: float, channel, report, tightness: bool) -> Outcome:
    if report is None:
        return Outcome(request.index, latency, None)
    s = report.stats
    counts = (report.achievable, report.p_star, s.expanded_nodes, s.generated_nodes, s.pruned_nodes)
    outcome = Outcome(request.index, latency, counts, s.ebf)
    if tightness and report.p_star:
        outcome.tightness = fhtp.heuristic(channel, _backlog(request.doc)) / report.p_star
    return outcome


def closed_loop(
    stream: Iterable[Request], seconds: float, min_requests: int, probe: SpeedProbe, gate: Gate
) -> list[Outcome]:
    """Decide requests in order until ``seconds`` of deciding and ``min_requests`` are done.

    Drawing requests, checking answers and the probe's kernel runs do not
    count as deciding.
    """
    return _replay(stream, decide, probe, gate, lambda busy, n: busy >= seconds and n >= min_requests)


def traced_replay(stream: Iterable[Request], count: int, tracer: Tracer, probe: SpeedProbe) -> list[Outcome]:
    """Decide the first ``count`` requests again, with every layer call recorded as a span."""

    def run(request: Request):
        tracer.request = request.index
        return root(request)

    root = tracer.wrap("request", decide)
    with tracer.patched(TRACE_TARGETS):
        outcomes = _replay(stream, run, probe, None, lambda busy, n: n >= count)
    tracer.request = None
    return outcomes


def warm_up() -> None:
    _, report, verified = decide(WARM_UP)
    if report.p_star != 5 or not verified:
        raise RuntimeError(f"warm-up example decided wrongly: p*={report.p_star}, verified={verified}")


def count_mismatches(a: list[Outcome], b: list[Outcome]) -> list[int]:
    """Requests whose p* or node counts differ between two runs."""
    return [x.index for x, y in zip(a, b, strict=True) if x.counts != y.counts]


# --- correctness gate -----------------------------------------------------


def _replay_drains(doc: dict, actions, slots: int) -> bool:
    """Whether ``actions`` drain the backlog within ``slots``, by our own channel model."""
    if len(actions) != slots:
        return False
    q0 = _backlog(doc)
    queue = q0.copy()
    if actions:
        rates = capacity_matrix(np.asarray(doc["gains"]), np.asarray(doc["noise"]), np.asarray(actions, dtype=float))
        for r in rates:
            queue = np.maximum(queue - doc["slot_duration"] * r, 0.0)
    return bool(np.all(queue <= 1e-7 * max(1.0, float(np.max(q0)))))


def answer_problem(request: Request, report, verified: bool | None) -> str | None:
    """What is wrong with one answer, judged without the oracle; None if nothing."""
    doc = request.doc
    horizon = doc["horizon"]
    if report.achievable:
        if not verified:
            return "achievable answer failed verify_policy"
        if report.p_star > horizon:
            return f"achievable with p*={report.p_star} > T={horizon}"
    elif report.p_star is None:
        if not request.cutoff:
            return "no p* although the search was exhaustive"
        if report.certified_lower_bound is None or report.certified_lower_bound <= horizon:
            return f"cutoff bound {report.certified_lower_bound} does not exceed T={horizon}"
        return None
    elif report.p_star <= horizon:
        return f"unachievable with p*={report.p_star} <= T={horizon}"
    if not _replay_drains(doc, report.solution.actions, report.p_star):
        return f"witness schedule does not drain the backlog in p*={report.p_star} slots"
    return None


class Gate:
    """Checks every answer as it comes; `run_oracle` re-solves the first ``oracle_sample``.

    The oracle runs after the timed phase, so that its garbage and cache
    traffic do not land inside the requests being timed.
    """

    def __init__(self, oracle_sample: int):
        self.oracle_sample = oracle_sample
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.oracle_checked = 0
        self.oracle_mismatches = 0
        self.oracle_refused = 0
        self._seen = 0
        self._for_oracle: list[tuple] = []

    def inspect(self, request: Request, channel, report, verified: bool | None, error: str | None) -> None:
        problem = error or answer_problem(request, report, verified)
        if problem is not None:
            self.fail(request.index, problem)
        elif self._seen < self.oracle_sample:
            self._for_oracle.append((request, channel, report))
        self._seen += 1

    def run_oracle(self) -> None:
        for request, channel, report in self._for_oracle:
            problem = self._oracle_problem(request, channel, report)
            if problem is not None:
                self.fail(request.index, problem)
        self._for_oracle = []

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        self.problems.append(f"request {index}: {problem}")

    def _oracle_problem(self, request: Request, channel, report) -> str | None:
        """No schedule over the full power-vector set beats the answer.

        For a known p* the oracle searches depth p*-1 (the witness replay
        already shows p* suffices); for a cutoff answer it searches depth T.
        """
        doc = request.doc
        depth = report.p_star - 1 if report.p_star is not None else doc["horizon"]
        try:
            result = fhtp.brute_force_min_time(channel, _backlog(doc), depth, use_refined=False)
        except fhtp.SizeLimitError:
            self.oracle_refused += 1
            return None
        self.oracle_checked += 1
        if result.p_star is not None:
            self.oracle_mismatches += 1
            return f"oracle drains in {result.p_star} slots, below the answer"
        return None


# --- metrics --------------------------------------------------------------


def latency_metrics(outcomes: list[Outcome], scaled: bool = True) -> dict[str, tuple[float, str]]:
    """Latency quantiles and throughput, at reference speed or as measured."""
    ms = [(o.scaled if scaled else o.latency) * 1e3 for o in outcomes]
    return {
        "decide_ms_p50": (statistics.median(ms), "ms"),
        "decide_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "decisions_per_s": (len(ms) * 1e3 / sum(ms), "1/s"),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def search_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    answered = [o for o in outcomes if o.counts is not None]
    generated = sum(o.counts[3] for o in answered)
    pruned = sum(o.counts[4] for o in answered)
    return {
        "solver.expanded": (_mean(o.counts[2] for o in answered), "count"),
        "solver.generated": (_mean(o.counts[3] for o in answered), "count"),
        "solver.pruned": (_mean(o.counts[4] for o in answered), "count"),
        "solver.pruned_per_generated": (pruned / generated if generated else 0.0, "ratio"),
        "solver.ebf": (_mean(o.ebf for o in answered if o.ebf > 0), "ratio"),
        "solver.h0_over_pstar": (_mean(o.tightness for o in answered if o.tightness is not None), "ratio"),
    }


def span_metrics(spans: list[Span], requests: int, factor: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-request means of the layer times (times ``factor``), plus coverage."""
    by_id = {s.sid: s for s in spans}
    inside = defaultdict(float)  # span id -> time covered by its children
    for s in spans:
        if s.parent is not None:
            inside[s.parent] += s.duration

    def parent_name(s: Span) -> str:
        return by_id[s.parent].name if s.parent is not None else ""

    total = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    self_time = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        sizes[s.name] += s.count or 0
        self_time[s.layer] += s.duration - inside[s.sid]
    capacity = sum(
        s.duration for s in spans if s.name == "channel.capacity_vector" and parent_name(s).startswith("region.")
    )
    region_in_solve = sum(
        s.duration for s in spans if s.name == "region.refined_power_set" and parent_name(s) == "solver.solve"
    )
    builds = calls["region.refined_power_set"]
    enumerated = sizes["region.enumerate_power_vectors"]
    kept = sizes["region.refined_power_set"]

    def per_request_ms(seconds: float) -> tuple[float, str]:
        return (seconds * 1e3 * factor / requests, "ms")

    out = {
        "scenario.parse_ms": per_request_ms(total["scenario.scenario_from_dict"] + total["scenario.channel"]),
        "channel.capacity_ms": per_request_ms(capacity),
        "region.enumerate_ms": per_request_ms(total["region.enumerate_power_vectors"]),
        "region.frontier_ms": per_request_ms(total["region.pareto_frontier"]),
        "region.refine_ms": per_request_ms(total["region.refined_power_set"]),
        "region.calls": (builds / requests, "count"),
        "region.K": (enumerated / calls["region.enumerate_power_vectors"] if enumerated else 0.0, "count"),
        "region.F": (kept / builds if builds else 0.0, "count"),
        "region.F_over_K": (kept / enumerated if enumerated else 0.0, "ratio"),
        "solver.search_ms": per_request_ms(total["solver.solve"] - region_in_solve),
        "policy.derive_ms": per_request_ms(total["policy.derive_policy"]),
        "policy.verify_ms": per_request_ms(total["policy.verify_policy"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_request_ms(self_time[layer])
    covered = sum(self_time[layer] for layer in LAYERS)
    out["trace.coverage"] = (covered / total["request"] if total["request"] else 0.0, "ratio")
    return out

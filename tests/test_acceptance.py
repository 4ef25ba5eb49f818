"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from fhtp import (
    FadingConfig,
    Policy,
    SearchStats,
    Solution,
    SolverOptions,
    brute_force_min_time,
    capacity_set,
    check_achievability,
    derive_policy,
    ebf_experiment,
    effective_branching_factor,
    heuristic,
    max_weight_policy,
    maxweight_counterexample,
    pareto_frontier,
    queue_update,
    refined_power_set,
    residual_cost,
    solve,
    verify_policy,
)
from .conftest import ORACLE_CAP, TOLERANCE_EDGE_SIZE, random_channel, tolerance_edge_instances

PUBLISHED_ACTIONS = [
    (2.0, 0.0, 0.0),
    (0.0, 2.0, 2.0),
    (0.0, 2.0, 2.0),
    (2.0, 2.0, 2.0),
    (2.0, 2.0, 0.0),
]
CORRECTED_LAST_RATE = [0.4626, 0.2465, 0.0]
UNPRUNED_TREE_SIZE = 37449  # sum of 8^t for t = 1..5
# the consistency inequality holds in exact arithmetic but the two float
# chains being compared each round independently; measured flips are exactly
# one ulp (2.2e-16) when a pair transmits interference-free at max power
FLOAT_GUARD = 1e-12


def _report(number: int, ok: bool, text: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def _replay_queue(channel, q0, actions):
    traj = [np.asarray(q0, dtype=float)]
    for s in actions:
        traj.append(queue_update(traj[-1], channel.capacity_vector(s), channel.slot_duration))
    return traj


def test_criterion_1_worked_example_reproduction(ex1):
    t0 = time.perf_counter()
    report = check_achievability(ex1, [1.0, 1.0, 1.0], 5)
    elapsed = time.perf_counter() - t0

    ok = report.achievable and report.p_star == 5 and report.policy is not None
    verification = verify_policy(ex1, report.policy, rel_tol=1e-6)
    ok = ok and verification.ok
    avg = report.policy.average_rate()
    rel_err = float(np.max(np.abs(avg - 1.0)))
    ok = ok and rel_err < 1e-6

    # the published power sequence drains [5,5,5] in exactly five slots
    traj = _replay_queue(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    ok = ok and bool(np.all(traj[5] == 0.0)) and bool(np.any(traj[4] > 0.0))

    # its implied last slot rate is the corrected figure and averages correctly
    published_solution = Solution(
        p_star=5, actions=PUBLISHED_ACTIONS, queue_trajectory=traj, stats=SearchStats()
    )
    published_policy = derive_policy(published_solution, 5, ex1, [1.0, 1.0, 1.0])
    last_rate = published_policy.pairs[4][0]
    ok = ok and last_rate == pytest.approx(CORRECTED_LAST_RATE, abs=1e-3)
    avg_published = published_policy.average_rate()
    ok = ok and bool(np.all(np.abs(avg_published - 1.0) < 1e-3))

    # the misprinted 10.2465 must fail verification
    pairs = list(published_policy.pairs)
    bad_rate = list(pairs[4][0])
    bad_rate[1] = 10.2465
    pairs[4] = (tuple(bad_rate), pairs[4][1])
    misprinted = Policy(pairs=tuple(pairs), horizon=5, target=published_policy.target)
    ok = ok and not verify_policy(ex1, misprinted).ok

    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"worked example 1: p*={report.p_star}, avg rel err {rel_err:.2e}, "
        f"published sequence drains in 5, misprint rejected, {elapsed:.3f}s",
    )


def test_criterion_2_unachievable_example(ex2):
    t0 = time.perf_counter()
    exhaustive = check_achievability(ex2, [1.0, 1.0, 1.0], 5)
    cutoff = check_achievability(ex2, [1.0, 1.0, 1.0], 5, cutoff=True)
    elapsed = time.perf_counter() - t0
    ok = (
        exhaustive.p_star == 8
        and not exhaustive.achievable
        and not cutoff.achievable
        and cutoff.p_star is None
        and cutoff.certified_lower_bound > 5
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"worked example 2: exact p*={exhaustive.p_star}, cutoff bound "
        f">{cutoff.certified_lower_bound - 1 if cutoff.certified_lower_bound else '?'}, {elapsed:.3f}s",
    )


def test_criterion_3_solver_matches_oracle(corpus):
    mismatches = 0
    for inst in corpus:
        if solve(inst.channel, inst.q0, refined=inst.refined).p_star != inst.oracle_p:
            mismatches += 1
    ok = mismatches == 0
    _report(
        3,
        ok,
        f"optimality on {len(corpus)} random instances: "
        f"{len(corpus) - mismatches}/{len(corpus)} match the oracle",
    )


def test_criterion_3_tolerance_edge_matches_oracle():
    mismatches = 0
    for channel, refined, q0 in tolerance_edge_instances():
        oracle = brute_force_min_time(channel, q0, ORACLE_CAP).p_star
        if oracle is None or solve(channel, q0, refined=refined).p_star != oracle:
            mismatches += 1
    ok = mismatches == 0
    _report(
        3,
        ok,
        f"optimality at the drain tolerance: "
        f"{TOLERANCE_EDGE_SIZE - mismatches}/{TOLERANCE_EDGE_SIZE} match the oracle",
    )


def test_criterion_4_admissibility_and_consistency(corpus):
    h_violations = 0
    c_violations = 0
    nodes = 0
    for inst in corpus:
        solution = solve(
            inst.channel,
            inst.q0,
            SolverOptions(trace_expanded=True),
            refined=inst.refined,
        )
        tau = inst.channel.slot_duration
        for q in solution.expanded_queues:
            nodes += 1
            h = heuristic(inst.channel, q)
            if h > residual_cost(inst.channel, q, inst.oracle_p):
                h_violations += 1
            for entry in inst.refined.entries:
                successor = queue_update(q, entry.rate, tau)
                if h > 1.0 + heuristic(inst.channel, successor) + FLOAT_GUARD:
                    c_violations += 1
    ok = h_violations == 0 and c_violations == 0
    _report(
        4,
        ok,
        f"heuristic admissible and consistent on {nodes} expanded nodes: "
        f"{h_violations} admissibility / {c_violations} consistency violations",
    )


def test_criterion_5_refined_set_preserves_optimum(corpus, ex1):
    mismatches = 0
    for inst in corpus[:100]:
        full = brute_force_min_time(inst.channel, inst.q0, 4, use_refined=False)
        if full.p_star != inst.oracle_p:
            mismatches += 1
    frontier = pareto_frontier([p.rate for p in capacity_set(ex1)])
    ok = mismatches == 0 and len(frontier) == 7
    _report(
        5,
        ok,
        f"full vs refined action set: {100 - mismatches}/100 equal optima; "
        f"example-1 frontier has {len(frontier)}/8 points",
    )


def test_criterion_6_max_weight_incompleteness(corpus):
    channel, mu, horizon = maxweight_counterexample()
    refined = refined_power_set(channel)
    dots = {e.power: float(np.dot(mu, e.rate)) for e in refined.entries}
    mw = max_weight_policy(channel, mu, horizon)
    astar = check_achievability(channel, mu, horizon)
    ok = (
        mw.policy.pairs[0][1] == (0.0, 2.0)
        and abs(dots[(0.0, 2.0)] - 6.291) < 1e-3
        and abs(dots[(2.0, 2.0)] - 5.379) < 1e-3
        and dots[(0.0, 2.0)] > dots[(2.0, 2.0)]
        and not mw.cleared
        and astar.achievable
        and astar.p_star == 1
    )

    false_witnesses = 0
    for inst in corpus:
        tau = inst.channel.slot_duration
        for horizon_t in {max(1, inst.oracle_p - 1), inst.oracle_p}:
            target = inst.q0 / (tau * horizon_t)
            result = max_weight_policy(inst.channel, target, horizon_t)
            # solver p* equals oracle_p on this corpus (criterion 3), so
            # achievability within horizon_t is exactly oracle_p <= horizon_t
            if result.cleared and inst.oracle_p > horizon_t:
                false_witnesses += 1
    ok = ok and false_witnesses == 0
    _report(
        6,
        ok,
        f"max-weight picks (0,2) by {dots[(0.0, 2.0)]:.3f} > {dots[(2.0, 2.0)]:.3f} and fails "
        f"while exact check succeeds with p*=1; {false_witnesses} false witnesses "
        f"over {len(corpus)} random instances",
    )


def test_criterion_7_effective_branching_factor():
    b = effective_branching_factor(849, 5)
    ok = abs(b - 3.6116) <= 1e-3

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 11))
        u = int(rng.integers(p, 10**6 + 1))
        root = effective_branching_factor(u, p)
        residual = abs(sum(root**t for t in range(1, p + 1)) - u)
        worst = max(worst, residual)
    ok = ok and worst < 1e-6
    _report(
        7,
        ok,
        f"EBF(849, 5) = {b:.4f} (target 3.6116 +/- 1e-3); worst bisection residual "
        f"{worst:.2e} over 1000 random (U, p) pairs",
    )


def test_criterion_8_fading_sweep():
    t0 = time.perf_counter()
    rows = [
        ebf_experiment(FadingConfig(m=float(m), trials=500, seed=20260810))
        for m in range(1, 6)
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.solved > 0 for r in rows)
    ok = ok and all(r.avg_ebf < 5.0 and r.avg_ebf < 7.0 for r in rows)
    ok = ok and all(r.avg_expanded < UNPRUNED_TREE_SIZE / 10 for r in rows)
    ok = ok and elapsed < 300.0
    summary = ", ".join(f"m={r.m:g}: B={r.avg_ebf:.3f}, U={r.avg_expanded:.1f}" for r in rows)
    _report(8, ok, f"fading sweep below bounds in {elapsed:.1f}s ({summary})")


def test_criterion_9_queue_recursion_invariants():
    rng = np.random.default_rng(909)
    sequences = 0
    worst_gap = 0.0
    monotone = True
    while sequences < 10_000:
        channel = random_channel(rng)
        tau = channel.slot_duration
        refined = refined_power_set(channel)
        rates = [np.array(e.rate) for e in refined.entries]
        for _ in range(100):
            sequences += 1
            length = int(rng.integers(1, 9))
            picks = rng.integers(0, len(rates), length)
            q0 = rng.uniform(0.0, 20.0, channel.num_pairs)
            q = q0.copy()
            total = np.zeros_like(q0)
            for i in picks:
                nxt = queue_update(q, rates[i], tau)
                monotone = monotone and bool(np.all(nxt <= q))
                total += tau * rates[i]
                q = nxt
            clamped = np.maximum(q0 - total, 0.0)
            worst_gap = max(worst_gap, float(np.max(np.abs(q - clamped))))
    ok = monotone and worst_gap <= 1e-12
    _report(
        9,
        ok,
        f"telescoped vs sequential queues agree to {worst_gap:.2e} "
        f"(<= 1e-12) with monotone queues over {sequences} sequences",
    )

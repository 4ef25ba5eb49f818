import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtp import (
    ChannelModel,
    InfeasibleError,
    brute_force_min_time,
    effective_branching_factor,
    heuristic,
    queue_update,
    refined_power_set,
    solve,
    solver,
)

from .conftest import random_channel, solve_traced, tolerance_edge_instances


def test_queue_update_partial_drain(ex1):
    cap = ex1.capacity_vector((2.0, 0.0, 0.0))
    out = queue_update([5.0, 5.0, 5.0], cap, 1.0)
    assert out == pytest.approx([5.0 - math.log2(11.0), 5.0, 5.0], rel=1e-12)
    assert out[0] == pytest.approx(1.5406, abs=1e-4)


def test_queue_update_zero_queue_stays_zero():
    out = queue_update([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 1.0)
    assert np.all(out == 0.0)


def test_queue_update_clamps_at_zero():
    out = queue_update([1.0, 1.0, 1.0], [3.4594, 0.0, 0.0], 1.0)
    assert list(out) == [0.0, 1.0, 1.0]


def test_heuristic_uniform_backlog(ex1):
    h = heuristic(ex1, [5.0, 5.0, 5.0])
    assert h == pytest.approx(5.0 / math.log2(11.0), rel=1e-12)
    assert h == pytest.approx(1.4453, abs=1e-4)


def test_heuristic_zero_iff_drained(ex1):
    assert heuristic(ex1, [0.0, 0.0, 0.0]) == 0.0
    assert heuristic(ex1, [0.0, 0.0, 1e-12]) > 0.0


def test_heuristic_single_pair_backlog(ex1):
    assert heuristic(ex1, [0.0, 0.0, 3.9069]) == pytest.approx(3.9069 / math.log2(15.0), rel=1e-12)
    assert heuristic(ex1, [0.0, 0.0, 3.9069]) == pytest.approx(1.0, abs=1e-4)


def test_heuristic_degenerate_pair_with_backlog():
    channel = ChannelModel(
        gains=((0.5, 0.0), (0.0, 0.5)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0,)),
    )
    with pytest.raises(InfeasibleError):
        heuristic(channel, [1.0, 1.0])
    assert heuristic(channel, [1.0, 0.0]) > 0.0


def test_solve_example1(ex1):
    solution = solve(ex1, [5.0, 5.0, 5.0])
    assert solution.p_star == 5
    assert len(solution.actions) == 5
    assert solution.stats.refined_size == len(refined_power_set(ex1)) == 7
    # the returned schedule really drains the backlog
    q = np.array([5.0, 5.0, 5.0])
    for s in solution.actions:
        q = queue_update(q, ex1.capacity_vector(s), 1.0)
    assert np.all(q <= 1e-9 * 5.0)
    assert len(solution.queue_trajectory) == 6
    assert np.all(solution.queue_trajectory[-1] <= 1e-9 * 5.0)
    # the search itself is pinned: counts and the witness schedule
    s = solution.stats
    assert (s.expanded_nodes, s.generated_nodes, s.pruned_nodes) == (82, 215, 366)
    assert solution.actions == [(0.0, 0.0, 2.0), *[(2.0, 2.0, 0.0)] * 3, (2.0, 2.0, 2.0)]


def test_solve_example2_exhaustive(ex2):
    solution = solve(ex2, [5.0, 5.0, 5.0])
    assert solution.p_star == 8
    s = solution.stats
    assert (s.expanded_nodes, s.generated_nodes, s.pruned_nodes) == (784, 1627, 3868)


def test_solve_zero_queue(ex1):
    solution = solve(ex1, [0.0, 0.0, 0.0])
    assert solution.p_star == 0
    assert solution.actions == []
    assert solution.stats.expanded_nodes == 0


def test_solve_cutoff_certificate(ex2):
    solution = solve(ex2, [5.0, 5.0, 5.0], depth_cap=5)
    assert solution.p_star is None
    assert solution.min_f_bound == 6
    s = solution.stats
    assert (s.expanded_nodes, s.generated_nodes, s.pruned_nodes) == (77, 209, 337)
    # the cutoff run must do less work than the exhaustive one
    exhaustive = solve(ex2, [5.0, 5.0, 5.0])
    assert solution.stats.expanded_nodes <= exhaustive.stats.expanded_nodes


def test_solve_rejects_negative_queue(ex1):
    with pytest.raises(ValueError):
        solve(ex1, [-1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        solve(ex1, [float("nan"), 1.0, 1.0])
    with pytest.raises(ValueError):
        solve(ex1, [float("inf"), 1.0, 1.0])


def test_solve_infeasible_degenerate_pair():
    channel = ChannelModel(
        gains=((0.5, 0.0), (0.0, 0.5)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0,)),
    )
    with pytest.raises(InfeasibleError):
        solve(channel, [1.0, 1.0])


def test_queue_monotone_along_trajectory(ex1):
    solution = solve(ex1, [5.0, 5.0, 5.0])
    traj = solution.queue_trajectory
    for before, after in zip(traj, traj[1:]):
        assert np.all(after <= before)


def test_solver_matches_oracle_with_nonunit_slot_duration():
    rng = np.random.default_rng(321)
    for _ in range(12):
        base = random_channel(rng)
        channel = ChannelModel(
            gains=base.gains,
            noise=base.noise,
            power_sets=base.power_sets,
            slot_duration=float(rng.uniform(0.3, 2.5)),
        )
        refined = refined_power_set(channel)
        picks = rng.integers(0, len(refined), int(rng.integers(1, 5)))
        q0 = (
            rng.uniform(0.4, 0.95)
            * channel.slot_duration
            * np.sum([refined.entries[i].rate for i in picks], axis=0)
        )
        assert solve(channel, q0).p_star == brute_force_min_time(channel, q0, 4).p_star


def _wide_instances():
    # four pairs with levels {0, 1, 2}: up to 81 refined actions, wider than
    # any corpus channel (2-3 pairs)
    rng = np.random.default_rng(4)
    for _ in range(8):
        channel = ChannelModel(
            gains=tuple(tuple(float(g) for g in row) for row in rng.uniform(0.05, 1.0, (4, 4))),
            noise=tuple(float(w) for w in rng.uniform(0.05, 0.3, 4)),
            power_sets=((0.0, 1.0, 2.0),) * 4,
        )
        refined = refined_power_set(channel)
        picks = rng.integers(0, len(refined), int(rng.integers(1, 4)))
        q0 = rng.uniform(0.4, 0.95) * np.sum([refined.entries[i].rate for i in picks], axis=0)
        yield channel, refined, q0


def test_solver_matches_oracle_on_wide_action_sets():
    widest = 0
    for channel, refined, q0 in _wide_instances():
        widest = max(widest, len(refined))
        assert solve(channel, q0).p_star == brute_force_min_time(channel, q0, 3).p_star
    assert widest > 50


def test_each_action_multiset_generated_once(ex1, ex2):
    # children take the expanded node's action index or a later one, so each
    # expansion generates or skips every refined action exactly once
    instances = [
        (ex1, refined_power_set(ex1), [5.0, 5.0, 5.0]),
        (ex2, refined_power_set(ex2), [5.0, 5.0, 5.0]),
        *_wide_instances(),
    ]
    for channel, refined, q0 in instances:
        solution = solve(channel, q0)
        s = solution.stats
        assert solution.p_star >= 1
        assert s.generated_nodes + s.pruned_nodes == s.refined_size * (s.expanded_nodes + 1)
        indices = [refined.powers.tolist().index(list(a)) for a in solution.actions]
        assert indices == sorted(indices)


def _search_record(solution, expanded):
    s = solution.stats
    return (
        solution.p_star,
        (s.expanded_nodes, s.generated_nodes, s.pruned_nodes, s.refined_size, s.ebf),
        solution.min_f_bound,
        solution.actions,
        [q.tobytes() for q in solution.queue_trajectory],
        [q.tobytes() for q in expanded],
    )


def test_wide_node_kernel_matches_scalar_loop(monkeypatch, corpus, ex1, ex2):
    # the NumPy pass over a node's children and the per-child loop must give
    # bitwise-equal queues and f values, hence the same search
    cases = [(inst.channel, inst.refined, inst.q0, None) for inst in corpus]
    cases += [(channel, refined, q0, None) for channel, refined, q0 in tolerance_edge_instances()]
    cases += [(channel, refined, q0, None) for channel, refined, q0 in _wide_instances()]
    cases.append((ex2, refined_power_set(ex2), [5.0, 5.0, 5.0], 5))
    # the second pair has no positive level, so its peak drain is infinite in both paths
    mute = ChannelModel(gains=ex1.gains, noise=ex1.noise, power_sets=((0.0, 2.0), (0.0,), (0.0, 1.0, 2.0)))
    cases.append((mute, refined_power_set(mute), [5.0, 0.0, 5.0], None))
    # a backlog past the drain tolerance by 1e-11 more than two peak slots:
    # only the ceiling guard keeps h at 2, which the depth-2 cap exposes
    q0 = [(2.0 * math.log2(11.0) + 1e-11) / (1.0 - solver.GOAL_EPS_FACTOR), 0.0, 0.0]
    cases.append((ex1, refined_power_set(ex1), q0, 2))
    for channel, refined, q0, depth_cap in cases:
        records = []
        for threshold in (1, len(refined) + 1):  # kernel on every node, then on none
            monkeypatch.setattr(solver, "_KERNEL_MIN_CHILDREN", threshold)
            records.append(_search_record(*solve_traced(monkeypatch, channel, q0, depth_cap)))
        assert records[0] == records[1]


def test_cutoff_at_exactly_the_optimum_still_finds_it(ex1):
    solution = solve(ex1, [5.0, 5.0, 5.0], depth_cap=5)
    assert solution.p_star == 5


def test_solve_with_zero_backlog_component(ex1):
    solution = solve(ex1, [3.0, 0.0, 2.0])
    assert solution.p_star is not None
    assert np.all(solution.queue_trajectory[-1] <= 1e-9 * 3.0)


def test_solve_deterministic(ex1):
    a = solve(ex1, [5.0, 5.0, 5.0])
    b = solve(ex1, [5.0, 5.0, 5.0])
    assert a.actions == b.actions
    assert a.stats.expanded_nodes == b.stats.expanded_nodes
    assert a.stats.generated_nodes == b.stats.generated_nodes


def test_stats_ebf_satisfies_defining_equation(ex1):
    solution = solve(ex1, [5.0, 5.0, 5.0])
    b, p, u = solution.stats.ebf, solution.p_star, solution.stats.expanded_nodes
    assert abs(sum(b**t for t in range(1, p + 1)) - u) < 1e-6


def test_ebf_published_point():
    assert effective_branching_factor(849, 5) == pytest.approx(3.6116, abs=1e-3)


def test_ebf_exact_power_sum():
    assert effective_branching_factor(14, 3) == pytest.approx(2.0, abs=1e-9)


def test_ebf_depth_one():
    assert effective_branching_factor(7, 1) == pytest.approx(7.0, abs=1e-9)


def test_ebf_errors():
    with pytest.raises(ValueError):
        effective_branching_factor(10, 0)
    with pytest.raises(ValueError):
        effective_branching_factor(2, 3)


@given(st.floats(1.0, 20.0), st.integers(1, 8))
def test_ebf_inverts_geometric_sum(b, p):
    u = sum(b**t for t in range(1, p + 1))
    assert effective_branching_factor(u, p) == pytest.approx(b, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_telescoped_queue_matches_sequential(seed, length):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng)
    refined = refined_power_set(channel)
    tau = channel.slot_duration
    q0 = rng.uniform(0.0, 20.0, channel.num_pairs)
    picks = rng.integers(0, len(refined), length)
    rates = [np.array(refined.entries[i].rate) for i in picks]
    q = q0.copy()
    for c in rates:
        nxt = queue_update(q, c, tau)
        assert np.all(nxt <= q)
        q = nxt
    clamped = np.maximum(q0 - tau * np.sum(rates, axis=0), 0.0)
    assert q == pytest.approx(clamped, abs=1e-12)

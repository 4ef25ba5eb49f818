import numpy as np
import pytest

from fhtp import SizeLimitError, brute_force_min_time, residual_cost, solve

from .conftest import random_instance


def test_oracle_example1_matches_solver(ex1):
    result = brute_force_min_time(ex1, [5.0, 5.0, 5.0], 6, use_refined=True)
    assert result.p_star == 5
    assert len(result.witness_actions) == 5
    assert solve(ex1, [5.0, 5.0, 5.0]).p_star == 5


def test_oracle_zero_queue(ex1):
    result = brute_force_min_time(ex1, [0.0, 0.0, 0.0], 3)
    assert result.p_star == 0
    assert result.witness_actions == []
    assert result.explored_nodes == 0


@pytest.mark.parametrize(
    "q0", [[float("inf"), 1.0, 1.0], [float("nan"), 1.0, 1.0], [-1.0, 1.0, 1.0]]
)
def test_oracle_rejects_bad_backlogs(ex1, q0):
    with pytest.raises(ValueError):
        brute_force_min_time(ex1, q0, 3)


def test_oracle_certificate_below_optimum(ex1):
    result = brute_force_min_time(ex1, [5.0, 5.0, 5.0], 2, use_refined=True)
    assert result.p_star is None
    assert result.witness_actions == []


def test_oracle_witness_is_replayable(ex1):
    result = brute_force_min_time(ex1, [5.0, 5.0, 5.0], 6)
    q = np.array([5.0, 5.0, 5.0])
    for s in result.witness_actions:
        q = np.maximum(q - ex1.capacity_vector(s), 0.0)
    assert np.all(q <= 1e-9 * 5.0)


def test_oracle_node_guard(ex1):
    with pytest.raises(SizeLimitError):
        brute_force_min_time(ex1, [5.0, 5.0, 5.0], 9, use_refined=False)


def test_oracle_full_set_agrees_with_refined(ex1):
    full = brute_force_min_time(ex1, [3.0, 3.0, 3.0], 4, use_refined=False)
    refined = brute_force_min_time(ex1, [3.0, 3.0, 3.0], 4, use_refined=True)
    assert full.p_star == refined.p_star


def test_residual_cost_zero(ex1):
    assert residual_cost(ex1, [0.0, 0.0, 0.0], 3) == 0


def test_residual_cost_one_slot(ex1):
    # 3.4594 is just under the solo full-power capacity of pair 1
    assert residual_cost(ex1, [3.4594, 0.0, 0.0], 3) == 1


def test_residual_cost_example1(ex1):
    assert residual_cost(ex1, [5.0, 5.0, 5.0], 6) == 5


def test_residual_cost_raises_beyond_cap(ex1):
    with pytest.raises(SizeLimitError):
        residual_cost(ex1, [5.0, 5.0, 5.0], 2)


def test_residual_monotone_under_queue_reduction():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_instance(rng)
        shrink = inst.q0 * rng.uniform(0.0, 1.0)
        assert residual_cost(inst.channel, shrink, 4) <= inst.oracle_p


def test_oracle_matches_solver_on_random_channels():
    rng = np.random.default_rng(5)
    for _ in range(15):
        inst = random_instance(rng)
        assert solve(inst.channel, inst.q0).p_star == inst.oracle_p

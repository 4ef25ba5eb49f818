import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhtp import (
    ChannelModel,
    Policy,
    refined_power_set,
    SearchStats,
    Solution,
    check_achievability,
    derive_policy,
    incompleteness_demo,
    max_weight_policy,
    maxweight_counterexample,
    queue_update,
    solve,
    verify_policy,
)
from fhtp import policy as policy_module

# power sequence published for the first worked example, and the slot rates it
# implies through the queue recursion (slot 5 pair 2 carries 0.2465, the only
# value consistent with both the capacity bound and the five-slot average)
PUBLISHED_ACTIONS = [
    (2.0, 0.0, 0.0),
    (0.0, 2.0, 2.0),
    (0.0, 2.0, 2.0),
    (2.0, 2.0, 2.0),
    (2.0, 2.0, 0.0),
]
PUBLISHED_RATES = [
    [3.4594, 0.0, 0.0],
    [0.0, 1.7655, 1.9260],
    [0.0, 1.7655, 1.9260],
    [1.0780, 1.2224, 1.1480],
    [0.4626, 0.2465, 0.0],
]


def replay(channel, q0, actions):
    """Solution object for a hand-chosen action sequence."""
    traj = [np.asarray(q0, dtype=float)]
    for s in actions:
        traj.append(queue_update(traj[-1], channel.capacity_vector(s), channel.slot_duration))
    return Solution(
        p_star=len(actions), actions=list(actions), queue_trajectory=traj, stats=SearchStats()
    )


def test_published_schedule_drains_in_five_slots(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    assert np.all(solution.queue_trajectory[-1] == 0.0)
    assert np.any(solution.queue_trajectory[-2] > 0.0)


def test_derive_policy_matches_published_rates(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    policy = derive_policy(solution, 5, ex1, [1.0, 1.0, 1.0])
    for got, want in zip(policy.rates(), PUBLISHED_RATES):
        assert got == pytest.approx(want, abs=1e-4)
    assert verify_policy(ex1, policy).ok


def test_derive_policy_pads_idle_slots(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    policy = derive_policy(solution, 8, ex1, [5.0 / 8, 5.0 / 8, 5.0 / 8])
    assert len(policy.pairs) == 8
    for rate, power in policy.pairs[5:]:
        assert rate == (0.0, 0.0, 0.0)
        assert power == (0.0, 0.0, 0.0)
    assert verify_policy(ex1, policy).ok


def test_derive_policy_zero_target(ex1):
    solution = solve(ex1, [0.0, 0.0, 0.0])
    policy = derive_policy(solution, 4, ex1, [0.0, 0.0, 0.0])
    assert all(rate == (0.0, 0.0, 0.0) and power == (0.0, 0.0, 0.0) for rate, power in policy.pairs)
    assert verify_policy(ex1, policy).ok


def test_derive_policy_full_horizon_no_padding(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    policy = derive_policy(solution, 5, ex1, [1.0, 1.0, 1.0])
    assert all(power != (0.0, 0.0, 0.0) for _, power in policy.pairs)


def test_derive_policy_rejects_short_horizon(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    with pytest.raises(ValueError):
        derive_policy(solution, 4, ex1, [1.25, 1.25, 1.25])


def test_published_misprint_fails_verification(ex1):
    # the 10.2465 figure cannot be a slot-5 rate: it breaks both the average
    # identity and the capacity of power vector (2, 2, 0)
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    good = derive_policy(solution, 5, ex1, [1.0, 1.0, 1.0])
    pairs = list(good.pairs)
    rate5 = list(pairs[4][0])
    rate5[1] = 10.2465
    pairs[4] = (tuple(rate5), pairs[4][1])
    bad = type(good)(pairs=tuple(pairs), horizon=good.horizon, target=good.target)
    report = verify_policy(ex1, bad)
    assert not report.ok
    assert report.check == "capacity"
    assert report.slot == 5
    assert report.component == 1


def test_verify_policy_flags_average_miss(ex1):
    solution = replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS)
    policy = derive_policy(solution, 5, ex1, [1.0, 1.0, 1.1])
    report = verify_policy(ex1, policy)
    assert not report.ok
    assert report.check == "average"
    assert report.component == 2


def test_verify_policy_flags_non_finite_values(ex1):
    good = derive_policy(replay(ex1, [5.0, 5.0, 5.0], PUBLISHED_ACTIONS), 5, ex1, [1.0, 1.0, 1.0])
    pairs = list(good.pairs)
    pairs[2] = ((pairs[2][0][0], float("nan"), pairs[2][0][2]), pairs[2][1])
    report = verify_policy(ex1, type(good)(pairs=tuple(pairs), horizon=5, target=good.target))
    assert (report.ok, report.check, report.slot, report.component) == (False, "finite", 3, 1)
    nan_target = type(good)(pairs=good.pairs, horizon=5, target=(1.0, 1.0, float("nan")))
    report = verify_policy(ex1, nan_target)
    assert (report.ok, report.check, report.component) == (False, "finite", 2)


def test_check_achievability_example1(ex1):
    report = check_achievability(ex1, [1.0, 1.0, 1.0], 5)
    assert report.achievable
    assert report.p_star == 5
    assert report.policy is not None
    assert verify_policy(ex1, report.policy).ok


def test_check_achievability_example2(ex2):
    report = check_achievability(ex2, [1.0, 1.0, 1.0], 5)
    assert not report.achievable
    assert report.p_star == 8
    assert report.policy is None


def test_check_achievability_zero_target(ex1):
    report = check_achievability(ex1, [0.0, 0.0, 0.0], 3)
    assert report.achievable
    assert report.p_star == 0


def test_check_achievability_cutoff_mode(ex2):
    report = check_achievability(ex2, [1.0, 1.0, 1.0], 5, cutoff=True)
    assert not report.achievable
    assert report.p_star is None
    assert report.certified_lower_bound >= 6


def test_max_weight_counterexample_picks_wrong_vector():
    channel, mu, horizon = maxweight_counterexample()
    result = max_weight_policy(channel, mu, horizon)
    assert result.policy.pairs[0][1] == (0.0, 2.0)
    assert not result.cleared
    assert result.final_queue == pytest.approx([1.5, 0.0])
    # the target itself is plainly reachable in the single slot
    report = check_achievability(channel, mu, horizon)
    assert report.achievable and report.p_star == 1


def test_max_weight_counterexample_inner_products():
    channel, mu, _ = maxweight_counterexample()
    q0 = np.asarray(mu)
    dots = {
        e.power: float(np.dot(q0, e.rate))
        for e in refined_power_set(channel).entries
    }
    assert dots[(0.0, 2.0)] == pytest.approx(6.291, abs=1e-3)
    assert dots[(2.0, 0.0)] == pytest.approx(5.189, abs=1e-3)
    assert dots[(2.0, 2.0)] == pytest.approx(5.379, abs=1e-3)
    assert dots[(0.0, 2.0)] > dots[(2.0, 2.0)] > dots[(2.0, 0.0)]


def test_max_weight_zero_target(ex1):
    result = max_weight_policy(ex1, [0.0, 0.0, 0.0], 3)
    assert result.cleared
    assert all(rate == (0.0, 0.0, 0.0) for rate, _ in result.policy.pairs)


def test_max_weight_single_pair_within_capacity():
    channel = ChannelModel(gains=((0.5,),), noise=(0.1,), power_sets=((0.0, 2.0),))
    result = max_weight_policy(channel, [3.0], 1)
    assert result.cleared


@pytest.mark.parametrize(
    "mu",
    [
        [float("inf"), 1.0, 1.0],
        [float("nan"), 1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1e308, 1.0, 1.0],  # finite, but the backlog 3 * 1e308 overflows
        [1.0, 1.0],
        [1.0, float("nan"), 1.0],
    ],
)
def test_max_weight_rejects_bad_targets(ex1, mu):
    with pytest.raises(ValueError):
        max_weight_policy(ex1, mu, 3)


@pytest.mark.parametrize(
    "mu, match",
    [
        ([1e308, 1.0, 1.0], "target rate gives a backlog .* overflows"),
        ([1.0, 1.0], r"target rate has shape \(2,\)"),
        ([1.0, float("nan"), 1.0], "target rate must be finite"),
    ],
)
def test_check_achievability_names_the_bad_target(ex1, mu, match):
    # the checks run before any multiply, so no overflow warning fires first
    with pytest.raises(ValueError, match=match):
        check_achievability(ex1, mu, 5)


def test_max_weight_success_implies_achievable(ex1):
    result = max_weight_policy(ex1, [0.5, 0.5, 0.5], 5)
    if result.cleared:
        assert check_achievability(ex1, [0.5, 0.5, 0.5], 5).achievable


def test_incompleteness_demo_quadrants(ex1):
    channel, mu, horizon = maxweight_counterexample()
    assert incompleteness_demo(channel, mu, horizon).quadrant == "astar_only"
    assert incompleteness_demo(channel, [9.0, 9.0], 1).quadrant == "both_fail"
    assert incompleteness_demo(channel, [0.0, 0.0], 1).quadrant == "both_succeed"
    # max-weight happens to serve pair 2 alone here, which is also optimal
    assert incompleteness_demo(channel, [0.0, 1.7], 1).quadrant == "both_succeed"
    # on the 3-pair worked example the greedy rule strands pair 3
    assert incompleteness_demo(ex1, [1.0, 1.0, 1.0], 5).quadrant == "astar_only"


# zero components stay allowed but subnormal magnitudes are excluded: scaling
# a denormal backlog underflows the inner products and the claim is about the
# argmax under real arithmetic
queue_component = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@settings(deadline=None)
@given(q1=queue_component, q2=queue_component, scale=st.floats(1e-3, 1e3))
def test_max_weight_argmax_scale_invariant(q1, q2, scale):
    channel, _, _ = maxweight_counterexample()
    refined = refined_power_set(channel)
    q = np.array([q1, q2])
    dots = np.array([np.dot(q, e.rate) for e in refined.entries])
    order = np.sort(dots)[::-1]
    # near-ties can flip under scaling by rounding alone
    assume(order[0] == 0.0 or order[0] - order[1] > 1e-9 * order[0])
    pick = max_weight_policy(channel, q, 1).policy.pairs[0][1]
    pick_scaled = max_weight_policy(channel, scale * q, 1).policy.pairs[0][1]
    assert pick == pick_scaled


def test_verify_policy_flags_wrong_slot_count(ex1):
    good = check_achievability(ex1, [1.0, 1.0, 1.0], 5).policy
    halves = []
    for rate, power in good.pairs:
        half = tuple(r / 2.0 for r in rate)
        halves += [(half, power), (half, power)]
    # same average over 5 steps, but 10 slots do not fit a horizon of 5
    split = Policy(pairs=tuple(halves), horizon=5, target=good.target)
    report = verify_policy(ex1, split)
    assert (report.ok, report.check, report.slot) == (False, "slots", None)
    empty = Policy(pairs=(), horizon=0, target=(0.0, 0.0, 0.0))
    assert verify_policy(ex1, empty).check == "slots"


def test_verify_policy_flags_power_outside_the_level_set(ex1):
    power = (2.5, 0.0, 0.0)  # ex1 offers only levels {0, 2}
    rate = tuple(float(c) for c in ex1.capacity_vector(power))
    assert not check_achievability(ex1, rate, 1).achievable
    report = verify_policy(ex1, Policy(pairs=((rate, power),), horizon=1, target=rate))
    assert (report.ok, report.check, report.slot, report.component) == (False, "power", 1, 0)
    short = Policy(pairs=(((0.0, 0.0, 0.0), (0.0, 0.0)),), horizon=1, target=(0.0, 0.0, 0.0))
    report = verify_policy(ex1, short)
    assert (report.ok, report.check, report.slot, report.component) == (False, "power", 1, 2)


def test_verify_policy_flags_wrong_length_target_and_rate(ex1):
    idle = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    report = verify_policy(ex1, Policy(pairs=(idle,), horizon=1, target=(0.0, 0.0)))
    assert (report.ok, report.check, report.slot) == (False, "shape", None)
    narrow = (((0.0, 0.0), (0.0, 0.0, 0.0)),)
    report = verify_policy(ex1, Policy(pairs=narrow, horizon=1, target=(0.0, 0.0, 0.0)))
    assert (report.ok, report.check, report.slot) == (False, "shape", 1)


@pytest.mark.parametrize("horizon", [5.5, 5.0, True, "5"])
def test_non_integer_horizon_rejected_before_search(monkeypatch, ex1, horizon):
    def no_search(*args, **kwargs):
        raise AssertionError("search ran on a non-integer horizon")

    monkeypatch.setattr(policy_module, "solve", no_search)
    with pytest.raises(ValueError, match="integer"):
        check_achievability(ex1, [1.0, 1.0, 1.0], horizon)
    with pytest.raises(ValueError, match="integer"):
        max_weight_policy(ex1, [1.0, 1.0, 1.0], horizon)


def test_numpy_integer_horizon_accepted(ex1):
    report = check_achievability(ex1, [1.0, 1.0, 1.0], np.int64(5))
    assert report.achievable and report.p_star == 5
    assert len(max_weight_policy(ex1, [1.0, 1.0, 1.0], np.int32(5)).policy.pairs) == 5

"""Schedules that hit an average-rate target, and the max-weight baseline.

A minimum-slot draining schedule converts directly into a per-slot
(rate, power) sequence whose average over the horizon equals the target: slot
rates are the queue decrements, and slots after the drain carry zeros. The
max-weight rule (pick the capacity vector with the largest inner product
against the residual queue) is also provided; it can fail on targets that are
plainly achievable, which is the point of the comparison report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, PowerVector
from .region import refined_power_set
from .solver import SearchStats, Solution, checked_backlog, queue_update, solve

AVERAGE_RTOL = 1e-6
CAPACITY_SLACK = 1e-9


@dataclass(frozen=True)
class Policy:
    """Per-slot (rate, power) pairs whose average rate meets ``target``."""

    pairs: tuple[tuple[tuple[float, ...], PowerVector], ...]
    horizon: int
    target: tuple[float, ...]

    def rates(self) -> np.ndarray:
        return np.array([r for r, _ in self.pairs], dtype=float)

    def average_rate(self) -> np.ndarray:
        return self.rates().sum(axis=0) / self.horizon


@dataclass
class VerificationReport:
    ok: bool
    # 'slots' | 'shape' | 'finite' | 'power' | 'capacity' | 'average' | 'nonnegative'
    check: str | None = None
    slot: int | None = None  # 1-based slot of the first violation
    component: int | None = None
    detail: str = ""


@dataclass
class AchievabilityReport:
    achievable: bool
    horizon: int
    p_star: int | None
    stats: SearchStats
    policy: Policy | None = None
    certified_lower_bound: int | None = None
    solution: Solution | None = None


@dataclass
class MaxWeightResult:
    policy: Policy
    cleared: bool
    final_queue: np.ndarray


@dataclass
class ComparisonReport:
    astar: AchievabilityReport
    max_weight: MaxWeightResult
    quadrant: str  # 'both_succeed' | 'astar_only' | 'both_fail' | 'maxweight_only'


def _zero_power(channel: ChannelModel) -> PowerVector:
    return (0.0,) * channel.num_pairs


def _target_backlog(channel: ChannelModel, mu, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Target mu as an array, and the backlog tau*horizon*mu that meeting it drains."""
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (channel.num_pairs,):
        raise ValueError(f"target rate has shape {mu.shape}, expected ({channel.num_pairs},)")
    # in Python floats, so an overflow gives inf instead of a NumPy warning
    rates = mu.tolist()
    if not all(map(math.isfinite, rates)):
        raise ValueError("target rate must be finite")
    if min(rates) < 0:
        raise ValueError("target rate must be componentwise nonnegative")
    try:
        span = float(channel.slot_duration * horizon)
    except OverflowError:  # a horizon too large for a float
        span = math.inf
    backlog = [span * r for r in rates]
    if not all(map(math.isfinite, backlog)):
        raise ValueError("target rate gives a backlog slot_duration * horizon * rate that overflows")
    return mu, np.array(backlog)


def derive_policy(solution: Solution, horizon: int, channel: ChannelModel, mu) -> Policy:
    """Schedule achieving average rate mu over ``horizon`` slots.

    Slot t <= p_star transmits the queue decrement at the solver's power
    choice; later slots are idle. The slot rates telescope to the initial
    backlog, so the average equals mu up to the drain tolerance.
    """
    if solution.p_star is None or solution.p_star > horizon:
        raise ValueError(
            f"schedule needs {solution.p_star} slots, more than the horizon {horizon}"
        )
    tau = channel.slot_duration
    traj = solution.queue_trajectory
    pairs = []
    for t, power in enumerate(solution.actions):
        rate = (traj[t] - traj[t + 1]) / tau
        pairs.append((tuple(float(x) for x in rate), tuple(power)))
    idle = ((0.0,) * channel.num_pairs, _zero_power(channel))
    pairs.extend([idle] * (horizon - solution.p_star))
    return Policy(
        pairs=tuple(pairs),
        horizon=horizon,
        target=tuple(float(x) for x in np.asarray(mu, dtype=float)),
    )


def verify_policy(channel: ChannelModel, policy: Policy) -> VerificationReport:
    """Check a policy against its contract and report the first violation.

    Checks, in order: one slot per step of a horizon of at least 1, one
    target component per pair; then slot by slot, one rate and one power
    level per pair, every rate finite and every level from its pair's power
    set; then every target component being finite, every slot rate within
    the capacity of its power vector (plus a small absolute slack for
    subtraction chains), the average rate matching the target to
    ``AVERAGE_RTOL``, and slot rates being nonnegative.
    """
    n = channel.num_pairs
    if policy.horizon < 1 or len(policy.pairs) != policy.horizon:
        return VerificationReport(
            ok=False, check="slots", detail=f"{len(policy.pairs)} slots for horizon {policy.horizon!r}"
        )
    if len(policy.target) != n:
        return VerificationReport(
            ok=False, check="shape", detail=f"target has {len(policy.target)} entries, expected {n}"
        )
    levels = [set(s) for s in channel.power_sets]
    for t, (rate, power) in enumerate(policy.pairs):
        if len(rate) != n:
            return VerificationReport(
                ok=False, check="shape", slot=t + 1, detail=f"rate has {len(rate)} entries, expected {n}"
            )
        if len(power) != n:
            return VerificationReport(
                ok=False,
                check="power",
                slot=t + 1,
                component=min(len(power), n),  # first missing or extra level
                detail=f"power vector has {len(power)} entries, expected {n}",
            )
        for j in range(n):
            if not math.isfinite(rate[j]):
                return VerificationReport(
                    ok=False, check="finite", slot=t + 1, component=j, detail=f"rate {rate[j]!r}"
                )
            if power[j] not in levels[j]:
                return VerificationReport(
                    ok=False,
                    check="power",
                    slot=t + 1,
                    component=j,
                    detail=f"power {power[j]!r} is not a level of pair {j}",
                )
    for j in range(n):
        if not math.isfinite(policy.target[j]):
            return VerificationReport(
                ok=False, check="finite", component=j, detail=f"target {policy.target[j]!r}"
            )
    caps = channel.capacity_matrix([power for _, power in policy.pairs])
    for t, ((rate, _), cap) in enumerate(zip(policy.pairs, caps)):
        for j in range(n):
            if rate[j] > cap[j] + CAPACITY_SLACK:
                return VerificationReport(
                    ok=False,
                    check="capacity",
                    slot=t + 1,
                    component=j,
                    detail=f"rate {rate[j]:.6g} exceeds capacity {cap[j]:.6g}",
                )
    avg = policy.average_rate()
    for j in range(n):
        tol = AVERAGE_RTOL * max(1.0, abs(policy.target[j]))
        if abs(avg[j] - policy.target[j]) > tol:
            return VerificationReport(
                ok=False,
                check="average",
                component=j,
                detail=f"average {avg[j]:.8g} misses target {policy.target[j]:.8g}",
            )
    for t, (rate, _) in enumerate(policy.pairs):
        for j in range(n):
            if rate[j] < 0.0:
                return VerificationReport(
                    ok=False,
                    check="nonnegative",
                    slot=t + 1,
                    component=j,
                    detail=f"negative rate {rate[j]:.6g}",
                )
    return VerificationReport(ok=True)


def check_achievability(
    channel: ChannelModel,
    mu,
    horizon: int,
    *,
    cutoff: bool = False,
) -> AchievabilityReport:
    """Decide whether average rate mu is reachable within ``horizon`` slots.

    Runs the minimum-slot solver on the backlog tau*horizon*mu. With
    ``cutoff`` the search stops as soon as it can certify the answer exceeds
    the horizon, without computing the exact minimum.
    """
    mu, q0 = _target_backlog(channel, mu, horizon)
    solution = solve(channel, q0, horizon if cutoff else None)
    if solution.p_star is None:
        # g plus a ceiled bound: integral, and above the horizon once the cutoff fires
        bound = int(solution.min_f_bound)
        return AchievabilityReport(
            achievable=False,
            horizon=horizon,
            p_star=None,
            stats=solution.stats,
            certified_lower_bound=bound,
            solution=solution,
        )
    achievable = solution.p_star <= horizon
    policy = derive_policy(solution, horizon, channel, mu) if achievable else None
    return AchievabilityReport(
        achievable=achievable,
        horizon=horizon,
        p_star=solution.p_star,
        stats=solution.stats,
        policy=policy,
        solution=solution,
    )


def max_weight_policy(channel: ChannelModel, mu, horizon: int) -> MaxWeightResult:
    """Run the max-weight rule for ``horizon`` slots against target mu.

    Each slot transmits with the refined power vector whose capacity has the
    largest inner product with the residual queue (ties go to the
    lexicographically smallest power vector), at rates clipped to what the
    queue still holds. Succeeds iff the backlog is drained, to the solver's
    drain tolerance, by the last slot.
    """
    mu, q0 = _target_backlog(channel, mu, horizon)
    q0, eps = checked_backlog(channel, q0)
    tau = channel.slot_duration
    refined = refined_power_set(channel)

    queue = q0.copy()
    pairs = []
    for _ in range(horizon):
        best_entry = None
        best_score = -math.inf
        for entry in refined.entries:
            score = float(np.dot(queue, entry.rate))
            if score > best_score or (score == best_score and entry.power < best_entry.power):
                best_entry = entry
                best_score = score
        nxt = queue_update(queue, best_entry.rate, tau)
        rate = (queue - nxt) / tau
        pairs.append((tuple(float(x) for x in rate), best_entry.power))
        queue = nxt
    policy = Policy(
        pairs=tuple(pairs), horizon=horizon, target=tuple(float(x) for x in mu)
    )
    return MaxWeightResult(
        policy=policy, cleared=bool(np.all(queue <= eps)), final_queue=queue
    )


def incompleteness_demo(channel: ChannelModel, mu, horizon: int) -> ComparisonReport:
    """Run the exact check and the max-weight rule side by side."""
    astar = check_achievability(channel, mu, horizon)
    mw = max_weight_policy(channel, mu, horizon)
    if astar.achievable and mw.cleared:
        quadrant = "both_succeed"
    elif astar.achievable:
        quadrant = "astar_only"
    elif mw.cleared:
        quadrant = "maxweight_only"
    else:
        quadrant = "both_fail"
    return ComparisonReport(astar=astar, max_weight=mw, quadrant=quadrant)


def maxweight_counterexample() -> tuple[ChannelModel, np.ndarray, int]:
    """Two-pair single-slot instance where max-weight fails on a feasible target.

    Both pairs transmitting together covers the target, but the second pair's
    solo capacity has the larger inner product with the backlog, so max-weight
    spends its only slot serving one pair.
    """
    channel = ChannelModel(
        gains=((0.5, 0.2), (0.2, 0.6)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0, 2.0)),
        slot_duration=1.0,
    )
    return channel, np.array([1.5, 1.7]), 1

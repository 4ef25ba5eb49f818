"""Brute-force minimum-slot search, used as ground truth in tests.

Ordinary iterative-deepening over action sequences. It exists to be trusted,
not to be fast: no heuristic, no pruning beyond the depth limit, and the same
queue dynamics and drain tolerance as the real solver so the two can only
disagree about search, never about arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelModel, PowerVector
from .errors import SizeLimitError
from .region import capacity_set, refined_power_set
from .solver import checked_backlog

NODE_GUARD = 10**7


@dataclass
class OracleResult:
    p_star: int | None  # None certifies the minimum exceeds the depth cap
    witness_actions: list[PowerVector]
    explored_nodes: int


def _action_table(channel: ChannelModel, use_refined: bool):
    tau = channel.slot_duration
    if use_refined:
        refined = refined_power_set(channel)
        return [(e.power, drain) for e, drain in zip(refined, (tau * refined.rates).tolist())]
    return [(p.power, tuple(tau * r for r in p.rate)) for p in capacity_set(channel)]


def brute_force_min_time(
    channel: ChannelModel,
    q0,
    depth_cap: int,
    use_refined: bool = True,
) -> OracleResult:
    """Exhaustive minimum-slot search up to ``depth_cap`` slots.

    Deepens one slot at a time, so the first sequence found is minimal.
    Refuses instances where the full tree would pass the node guard.
    """
    q0, eps = checked_backlog(channel, q0)
    if depth_cap < 0:
        raise ValueError("depth cap must be nonnegative")

    actions = _action_table(channel, use_refined)
    if len(actions) ** max(depth_cap, 1) > NODE_GUARD:
        raise SizeLimitError(
            f"{len(actions)}^{depth_cap} sequences exceed the {NODE_GUARD} node guard"
        )

    start = tuple(float(x) for x in q0)
    dim = len(start)
    explored = 0

    def drained(q) -> bool:
        return all(x <= eps for x in q)

    if drained(start):
        return OracleResult(p_star=0, witness_actions=[], explored_nodes=0)

    witness: list[int] = []

    def dfs(q, depth_left: int) -> bool:
        nonlocal explored
        for ai, (_, drain) in enumerate(actions):
            explored += 1
            child = tuple(
                q[j] - drain[j] if q[j] > drain[j] else 0.0 for j in range(dim)
            )
            witness.append(ai)
            if drained(child):
                return True
            if depth_left > 1 and dfs(child, depth_left - 1):
                return True
            witness.pop()
        return False

    for limit in range(1, depth_cap + 1):
        witness.clear()
        if dfs(start, limit):
            return OracleResult(
                p_star=len(witness),
                witness_actions=[actions[ai][0] for ai in witness],
                explored_nodes=explored,
            )
    return OracleResult(p_star=None, witness_actions=[], explored_nodes=explored)


def residual_cost(channel: ChannelModel, q, depth_cap: int) -> int:
    """Exact number of slots still needed to drain q (refined actions)."""
    result = brute_force_min_time(channel, q, depth_cap)
    if result.p_star is None:
        raise SizeLimitError(f"residual cost exceeds the depth cap {depth_cap}")
    return result.p_star

"""Minimum-slot draining of per-pair backlogs via A* over virtual-queue states.

The question "is average rate mu reachable in T slots" is equivalent to "can
the backlog tau*T*mu be drained to zero in at most T slots", so the solver
works on the latter: states are clamped residual queues, actions are the
refined power vectors, every slot costs 1, and the heuristic divides each
backlog by the best interference-free rate of its pair, which never
overestimates the true remaining slot count.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, PowerVector
from .errors import InfeasibleError, SizeLimitError
from .region import RefinedPowerSet, refined_power_set

GOAL_EPS_FACTOR = 1e-9
# slack subtracted before ceil() so a half-ulp overshoot of an exactly-integer
# slot bound cannot round the heuristic up past the true residual cost
_CEIL_GUARD = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for one solve run; the defaults reproduce the full algorithm."""

    depth_cap: int | None = None  # certify "needs more than this many slots" and stop
    horizon: int | None = None  # scheduling horizon, feeds the runaway guard
    use_heuristic: bool = True  # False degrades to uniform-cost search
    trace_expanded: bool = False  # record the queue of every expanded node


@dataclass
class SearchStats:
    expanded_nodes: int = 0
    generated_nodes: int = 0
    pruned_nodes: int = 0  # children skipped: action index below the expanded node's own
    ebf: float = 0.0
    wall_time: float = 0.0
    refined_size: int = 0  # |F|, the actions searched; 0 when q0 was already drained


@dataclass
class Solution:
    """Outcome of a solve run.

    ``p_star`` is the minimum number of slots that drains the queue; it is
    None when a depth cap stopped the search first, in which case
    ``min_f_bound`` certifies that every completion needs strictly more than
    the cap (it is the smallest evaluation value left on the frontier).
    """

    p_star: int | None
    actions: list[PowerVector]
    queue_trajectory: list[np.ndarray]
    stats: SearchStats
    min_f_bound: float | None = None
    expanded_queues: list[np.ndarray] | None = None


class _Node:
    """One search node: a residual queue, reached by nondecreasing action indices."""

    __slots__ = ("queue", "g", "f", "parent", "action")

    def __init__(self, queue, g, f, parent=None, action=0):
        self.queue = queue
        self.g = g
        self.f = f
        self.parent = parent
        self.action = action  # index of the last action; children take this one or later


def queue_update(q, c, tau: float) -> np.ndarray:
    """One slot of queue dynamics: drain tau*c from q, clamped at zero."""
    return np.maximum(np.asarray(q, dtype=float) - tau * np.asarray(c, dtype=float), 0.0)


def _slot_bound(channel: ChannelModel, eps: float):
    """`heuristic` for the backlog beyond drain tolerance ``eps``, as a function of the queue.

    A pair counts as drained once its backlog is at most ``eps``, so only
    q_n - eps of it bounds the slots still needed.
    """
    denom = [
        channel.slot_duration * channel.interference_free_rate(n) if channel.max_power(n) > 0.0 else 0.0
        for n in range(channel.num_pairs)
    ]

    def bound(queue) -> float:
        best = 0.0
        for n, dn in enumerate(denom):
            excess = queue[n] - eps
            if excess > 0.0:
                if dn <= 0.0:
                    raise InfeasibleError(
                        f"pair {n} has backlog but no positive power level; queue can never drain"
                    )
                v = excess / dn
                if v > best:
                    best = v
        return best

    return bound


def heuristic(channel: ChannelModel, q) -> float:
    """Optimistic remaining-slot count: largest backlog-to-peak-rate ratio.

    Every pair n can move at most tau * interference_free_rate(n) bits per
    slot, whatever anyone else does, so the maximum of q_n over that quantity
    never exceeds the true number of slots still needed. Zero exactly when the
    queue is drained. `solve` runs the same bound on the backlog beyond its
    drain tolerance, rounded up.
    """
    return _slot_bound(channel, 0.0)(np.asarray(q, dtype=float).tolist())


def effective_branching_factor(expanded: int, depth: int) -> float:
    """The branching factor B >= 1 of a uniform tree with ``expanded`` non-root nodes.

    Solves sum_{t=1..depth} B^t = expanded by bisection, to well below 1e-6.
    """
    if depth == 0:
        raise ValueError("effective branching factor is undefined at depth 0")
    if depth < 0 or expanded < depth:
        raise ValueError(f"need expanded >= depth >= 1, got expanded={expanded}, depth={depth}")
    return _ebf_root(expanded, depth, lo=1.0)


def _geom_sum(b: float, p: int) -> float:
    total = 0.0
    term = 1.0
    for _ in range(p):
        term *= b
        total += term
    return total


def _ebf_root(expanded: float, depth: int, lo: float = 0.0) -> float:
    hi = max(1.0, float(expanded))
    if _geom_sum(lo, depth) >= expanded:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _geom_sum(mid, depth) < expanded:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stats_ebf(expanded: int, depth: int | None) -> float:
    # the goal and the root are not counted, so expanded can fall below
    # depth, in which case the root of the defining equation drops below 1
    if not depth:
        return 0.0
    return _ebf_root(expanded, depth)


def _runaway_cap(options: SolverOptions, h0: float, num_pairs: int) -> int:
    if options.horizon is not None:
        slots = options.horizon
    else:
        # no horizon given: fall back to a bound that exceeds the serve-one-
        # pair-at-a-time schedule, which always drains the queue
        slots = max(1, math.ceil(h0))
    return math.ceil(2.0 * h0) + num_pairs * slots


def checked_backlog(channel: ChannelModel, q) -> tuple[np.ndarray, float]:
    """Backlog ``q`` as a float array, plus its drain tolerance.

    A pair counts as drained once its residual is at most the tolerance,
    ``GOAL_EPS_FACTOR * max(1, max q)``. Raises ValueError on a wrong shape or
    on non-finite or negative entries.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (channel.num_pairs,):
        raise ValueError(f"queue has shape {q.shape}, expected ({channel.num_pairs},)")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("queue lengths must be finite and nonnegative")
    return q, GOAL_EPS_FACTOR * max(1.0, float(np.max(q)))


def solve(
    channel: ChannelModel,
    q0,
    options: SolverOptions | None = None,
    *,
    refined: RefinedPowerSet | None = None,
) -> Solution:
    """Minimum number of slots that drains backlog q0, plus a witness schedule.

    A* over action multisets: slots commute, so a node is expanded only
    with actions whose refined-set index is at least that of the action that
    created it, and each multiset is generated once, in sorted order. The
    skipped children are counted in ``stats.pruned_nodes``. A child's queue
    is one clamped slot of drain from its parent's. Nodes are ordered by path
    cost plus the ceiled heuristic; ties prefer deeper nodes, then earlier
    pushes. The heuristic is admissible on the queue, so the sorted prefix of
    an optimal multiset that sits on the open list has f <= p*, and the
    search stays exact.
    """
    opts = options or SolverOptions()
    started = time.perf_counter()

    q0, eps = checked_backlog(channel, q0)
    bound = _slot_bound(channel, eps)
    q0_t = tuple(float(x) for x in q0)
    h0 = bound(q0_t)  # raises if a pair with backlog can never transmit

    stats = SearchStats()
    if bool(np.all(q0 <= eps)):
        stats.wall_time = time.perf_counter() - started
        return Solution(p_star=0, actions=[], queue_trajectory=[q0.copy()], stats=stats)

    if refined is None:
        refined = refined_power_set(channel)
    actions = refined.entries
    num_actions = len(actions)
    stats.refined_size = num_actions
    dim = channel.num_pairs
    tau = channel.slot_duration
    taucap = [tuple(tau * r for r in e.rate) for e in actions]

    use_h = opts.use_heuristic

    def h_of(queue) -> float:
        if not use_h:
            return 0.0
        best = bound(queue)
        # true residual costs are integers, so the bound rounds up
        return float(math.ceil(best - _CEIL_GUARD)) if best > 0.0 else 0.0

    hard_cap = _runaway_cap(opts, h0, dim)

    root = _Node(q0_t, 0, h_of(q0_t))
    counter = 0
    heap = [(root.f, 0, counter, root)]
    expanded_queues: list[np.ndarray] | None = [] if opts.trace_expanded else None

    goal: _Node | None = None
    min_f_bound: float | None = None

    while heap:
        node = heapq.heappop(heap)[-1]
        if all(q <= eps for q in node.queue):
            goal = node
            break
        if opts.depth_cap is not None and node.f > opts.depth_cap:
            min_f_bound = node.f
            break
        if node.f > hard_cap:
            raise SizeLimitError(
                f"search passed the depth guard {hard_cap} without draining the queue"
            )

        if node.parent is not None:
            stats.expanded_nodes += 1
        if expanded_queues is not None:
            expanded_queues.append(np.array(node.queue))

        stats.generated_nodes += num_actions - node.action
        stats.pruned_nodes += node.action
        child_g = node.g + 1
        q = node.queue
        for ai in range(node.action, num_actions):
            drain = taucap[ai]
            queue = tuple(q[j] - drain[j] if q[j] > drain[j] else 0.0 for j in range(dim))
            child = _Node(queue, child_g, child_g + h_of(queue), node, ai)
            counter += 1
            heapq.heappush(heap, (child.f, -child_g, counter, child))

    stats.wall_time = time.perf_counter() - started

    if goal is None:
        if min_f_bound is None:
            # frontier exhausted without reaching the goal: with every pair
            # able to transmit this cannot happen, so treat it as a guard trip
            raise SizeLimitError("search frontier exhausted before the queue drained")
        stats.ebf = _stats_ebf(stats.expanded_nodes, opts.depth_cap)
        return Solution(
            p_star=None,
            actions=[],
            queue_trajectory=[q0.copy()],
            stats=stats,
            min_f_bound=min_f_bound,
            expanded_queues=expanded_queues,
        )

    path = [goal]
    while path[-1].parent is not None:
        path.append(path[-1].parent)
    path.reverse()
    stats.ebf = _stats_ebf(stats.expanded_nodes, goal.g)
    return Solution(
        p_star=goal.g,
        actions=[actions[n.action].power for n in path[1:]],
        queue_trajectory=[np.array(n.queue) for n in path],
        stats=stats,
        expanded_queues=expanded_queues,
    )

"""Minimum-slot draining of per-pair backlogs via A* over virtual-queue states.

The question "is average rate mu reachable in T slots" is equivalent to "can
the backlog tau*T*mu be drained to zero in at most T slots", so the solver
works on the latter: states are clamped residual queues, actions are the
refined power vectors, every slot costs 1, and the heuristic divides each
backlog by the best interference-free rate of its pair, which never
overestimates the true remaining slot count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .channel import ChannelModel, PowerVector
from .errors import InfeasibleError, SizeLimitError
from .region import refined_power_set

GOAL_EPS_FACTOR = 1e-9
# slack subtracted before ceil() so a half-ulp overshoot of an exactly-integer
# slot bound cannot round the heuristic up past the true residual cost
_CEIL_GUARD = 1e-9
# a node with at least this many children computes them in one NumPy pass;
# below it the per-child Python loop is cheaper (timed at 3 and 4 pairs: the
# two tie at 8 children, the kernel leads from 9 on). The narrow searches need
# the loop: with the kernel on every node, 3-pair A* (at most 7 children per
# node) took twice as long per decision.
_KERNEL_MIN_CHILDREN = 9


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


def queue_update(q, c, tau: float) -> np.ndarray:
    """One slot of queue dynamics: drain tau*c from q, clamped at zero."""
    return np.maximum(np.asarray(q, dtype=float) - tau * np.asarray(c, dtype=float), 0.0)


def _peak_drains(channel: ChannelModel, q: np.ndarray, eps: float) -> np.ndarray:
    """Most of each pair's backlog one slot can drain, tau * interference_free_rate(n).

    ``inf`` for a pair whose peak rate is 0 (no positive power level, or a
    rate that rounds to 0), so that `_slots_left` ignores it. Raises
    InfeasibleError if such a pair holds backlog above ``eps``: that queue
    can never drain.
    """
    den = np.array([
        channel.slot_duration * channel.interference_free_rate(n) if channel.max_power(n) > 0.0 else 0.0
        for n in range(channel.num_pairs)
    ])
    stuck = den <= 0.0
    blocked = stuck & (q > eps)
    if np.any(blocked):
        n = int(np.argmax(blocked))
        raise InfeasibleError(f"pair {n} has backlog but cannot transmit at a positive rate; queue can never drain")
    den[stuck] = math.inf
    return den


def _slots_left(queues: np.ndarray, den: np.ndarray, eps: float) -> np.ndarray:
    """Largest (q_n - eps) / den_n in each row of ``queues``; ``den`` is `_peak_drains`.

    A pair counts as drained once its backlog is at most ``eps``, and one slot
    drains at most den_n of it, so this never exceeds the slots still needed.
    """
    return ((queues - eps) / den).max(axis=-1)


def _ceiled(bound):
    # true residual costs are integers, so the bound rounds up
    return np.maximum(np.ceil(bound - _CEIL_GUARD), 0.0)


def heuristic(channel: ChannelModel, q) -> float:
    """Optimistic remaining-slot count: largest backlog-to-peak-rate ratio.

    Every pair n can move at most tau * interference_free_rate(n) bits per
    slot, whatever anyone else does, so the maximum of q_n over that quantity
    never exceeds the true number of slots still needed. Zero exactly when the
    queue is drained. `solve` runs the same bound on the backlog beyond its
    drain tolerance, rounded up. Raises ValueError on a queue that
    `checked_backlog` rejects.
    """
    q, _ = checked_backlog(channel, q)
    return max(0.0, float(_slots_left(q, _peak_drains(channel, q, 0.0), 0.0)))


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


def _runaway_cap(h0: float, num_pairs: int) -> int:
    # serving one pair at a time at its peak rate drains the queue in at most
    # num_pairs * ceil(h0) slots, so this cap is never below p*
    return math.ceil(2.0 * h0) + num_pairs * max(1, math.ceil(h0))


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


def solve(channel: ChannelModel, q0, depth_cap: int | None = None) -> Solution:
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

    With ``depth_cap`` set, the search stops at the first pop with f above
    the cap and returns ``p_star=None`` with that f as ``min_f_bound``: a
    certificate that draining q0 needs more than ``depth_cap`` slots.

    The actions are the rows of the refined set's F x N ``powers`` array,
    and one slot of action a drains row a of ``drain = slot_duration *
    rates``. A node with at least ``_KERNEL_MIN_CHILDREN`` children computes
    all their queues and f values in one NumPy pass over ``drain``; narrower
    nodes loop in Python over its rows as lists. Both give bitwise-equal
    queues and f values, so the search is the same either way. A heap entry
    holds the child's queue and its parent's entry, so the goal's entry chain
    is the witness.

    A search that pops f above ceil(2*h0) + N*max(1, ceil(h0)), with h0 the
    root's bound before rounding, raises SizeLimitError. Serving one pair at a time
    at its peak rate drains q0 in at most N*ceil(h0) slots, so the cap is
    never below p*, and the guard can only fire on a broken search.
    """
    started = time.perf_counter()

    q0, eps = checked_backlog(channel, q0)
    den = _peak_drains(channel, q0, eps)  # raises if a pair with backlog can never transmit

    stats = SearchStats()
    if bool(np.all(q0 <= eps)):
        stats.wall_time = time.perf_counter() - started
        return Solution(p_star=0, actions=[], queue_trajectory=[q0.copy()], stats=stats)

    hard_cap = _runaway_cap(float(_slots_left(q0, den, eps)), channel.num_pairs)
    dens = den.tolist()

    refined = refined_power_set(channel)
    actions = refined.entries
    num_actions = len(actions)
    stats.refined_size = num_actions
    drain = channel.slot_duration * refined.rates
    taucap = drain.tolist()

    # heap entries: (f, -g, counter, queue, parent entry, last action index);
    # a popped entry is the node its children point back to
    heap = [(float(_ceiled(_slots_left(q0, den, eps))), 0, 0, q0.tolist(), None, 0)]
    counter = 0

    goal = None
    min_f_bound: float | None = None

    while heap:
        node = heappop(heap)
        f, neg_g, _, queue, parent, first = node
        if all(q <= eps for q in queue):
            goal = node
            break
        if depth_cap is not None and f > depth_cap:
            min_f_bound = f
            break
        if f > hard_cap:
            raise SizeLimitError(
                f"search passed the depth guard {hard_cap} without draining the queue"
            )

        if parent is not None:
            stats.expanded_nodes += 1

        width = num_actions - first
        stats.generated_nodes += width
        stats.pruned_nodes += first
        child_g = 1 - neg_g
        if width >= _KERNEL_MIN_CHILDREN:
            # np.maximum(q - d, 0) equals the loop's `q - d if q > d else 0.0`,
            # and the row bound equals the loop's scalar one
            clamped = np.maximum(np.array(queue) - drain[first:], 0.0)
            fs = (child_g + _ceiled(_slots_left(clamped, den, eps))).tolist()
            for ai, child_f, child_queue in zip(range(first, num_actions), fs, clamped.tolist()):
                counter += 1
                heappush(heap, (child_f, -child_g, counter, child_queue, node, ai))
        else:
            for ai in range(first, num_actions):
                child_queue = [q - d if q > d else 0.0 for q, d in zip(queue, taucap[ai])]
                best = 0.0  # `_slots_left` of the child, inlined
                for q, dn in zip(child_queue, dens):
                    v = (q - eps) / dn
                    if v > best:
                        best = v
                h = float(math.ceil(best - _CEIL_GUARD)) if best > 0.0 else 0.0
                counter += 1
                heappush(heap, (child_g + h, -child_g, counter, child_queue, node, ai))

    stats.wall_time = time.perf_counter() - started

    if goal is None:
        if min_f_bound is None:
            # frontier exhausted without reaching the goal: with every pair
            # able to transmit this cannot happen, so treat it as a guard trip
            raise SizeLimitError("search frontier exhausted before the queue drained")
        stats.ebf = _stats_ebf(stats.expanded_nodes, depth_cap)
        return Solution(
            p_star=None,
            actions=[],
            queue_trajectory=[q0.copy()],
            stats=stats,
            min_f_bound=min_f_bound,
        )

    path = [goal]
    while path[-1][4] is not None:
        path.append(path[-1][4])
    path.reverse()
    p_star = -goal[1]
    stats.ebf = _stats_ebf(stats.expanded_nodes, p_star)
    return Solution(
        p_star=p_star,
        actions=[actions[n[5]].power for n in path[1:]],
        queue_trajectory=[np.array(n[3]) for n in path],
        stats=stats,
    )

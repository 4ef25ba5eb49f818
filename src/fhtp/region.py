"""One-slot capacity set, Pareto frontiers, and the refined power-vector set.

Only power vectors whose capacity vector sits on the Pareto frontier of the
one-slot capacity set can matter to a time-minimal schedule: anything else is
dominated componentwise by a frontier point, slot for slot. Restricting the
search to those vectors shrinks the branching factor without losing optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel, PowerVector
from .errors import SizeLimitError

# The frontier compares every vector with every earlier frontier vector, so a
# build grows as K^2. With nearly all K vectors on the frontier it takes about
# 0.6 s at K = 8192 (13 pairs) and 1.0 s at K = 12800 (9 pairs) on a 2-CPU
# x86 machine; the cap stops enumeration there rather than minutes later.
ENUMERATION_CAP = 10_000


class CapacityPoint(NamedTuple):
    power: PowerVector
    rate: tuple[float, ...]


@dataclass(frozen=True)
class RefinedPowerSet:
    """Power vectors whose capacity vectors are Pareto-optimal for one slot.

    ``powers`` and ``rates`` are read-only F x N float arrays: row f holds
    the power vector and the one-slot capacity vector of ``entries[f]``.
    Equality and hashing use ``entries`` alone.
    """

    powers: np.ndarray = field(compare=False, repr=False)
    rates: np.ndarray = field(compare=False, repr=False)
    entries: tuple[CapacityPoint, ...] = field(init=False)

    def __post_init__(self):
        for name in ("powers", "rates"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        entries = tuple(map(CapacityPoint, map(tuple, self.powers.tolist()), map(tuple, self.rates.tolist())))
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def enumerate_power_vectors(channel: ChannelModel) -> list[PowerVector]:
    """All joint power choices, in lexicographic order over the sorted level sets."""
    total = math.prod(len(s) for s in channel.power_sets)
    if total > ENUMERATION_CAP:
        raise SizeLimitError(
            f"power-vector set has {total} elements, above the enumeration cap {ENUMERATION_CAP}"
        )
    return list(itertools.product(*channel.power_sets))


# rows per side of one dominance tile; a tile's temporaries are
# _BLOCK * _BLOCK booleans, however many points there are
_BLOCK = 256


def _rows(points: Sequence, what: str) -> np.ndarray:
    if len(points) == 0:
        raise ValueError(f"{what} of an empty point set")
    rows = np.asarray(points, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"{what} needs points of one common, positive dimension")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} needs finite points")
    return rows


def _dominance_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting ``rows`` so that every dominating row comes first.

    Keys: coordinate sum, then the coordinates themselves, all descending.
    A row that is >= another in every coordinate has a sum that is no smaller
    (floating-point addition in a fixed order is monotone), and when the sums
    tie it is lexicographically larger unless the rows are equal. The sort is
    stable, so equal rows stay in input order, next to each other.
    """
    keys = np.vstack([-rows[:, ::-1].T, -rows.sum(axis=1)])
    return np.lexsort(keys)


def _dominated(rows: np.ndarray, strict: bool) -> np.ndarray:
    """Mask of rows beaten by another row, for rows in `_dominance_order`.

    A row is beaten by one that is larger in every coordinate (``strict``)
    or, for rows without duplicates, by any other row that is >= in every
    coordinate. Only earlier rows can beat a row, and beating is
    transitive, so each block of rows is tested against itself and the
    earlier rows that are not beaten.
    """
    beats = np.greater if strict else np.greater_equal
    cols = rows.T
    dim, count = cols.shape
    out = np.zeros(count, dtype=bool)
    kept = np.empty((dim, 0))  # columns of the earlier rows not beaten

    def hits(cand: np.ndarray, block: np.ndarray) -> np.ndarray:
        # entry (a, b): candidate a beats block row b
        tile = beats(cand[0][:, None], block[0][None, :])
        for j in range(1, dim):
            tile &= beats(cand[j][:, None], block[j][None, :])
        return tile

    for start in range(0, count, _BLOCK):
        block = cols[:, start : start + _BLOCK]
        own = hits(block, block)
        if not strict:
            np.fill_diagonal(own, False)
        beaten = own.any(axis=0)
        for first in range(0, kept.shape[1], _BLOCK):
            beaten |= hits(kept[:, first : first + _BLOCK], block).any(axis=0)
        out[start : start + _BLOCK] = beaten
        kept = np.hstack([kept, block[:, ~beaten]])
    return out


def _frontier_runs(rows: np.ndarray, strict: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of equal rows in `_dominance_order`, and which are on the frontier.

    Returns ``(order, bounds, kept)``: ``order`` is `_dominance_order(rows)`,
    run r is ``order[bounds[r]:bounds[r + 1]]`` (equal rows, in input order),
    and ``kept[r]`` says that no row beats run r. With ``strict`` a row beats
    another when it is larger in every coordinate, so equal rows never beat
    each other and a run is kept or dropped whole; otherwise it beats any
    other row that it is >= in every coordinate.
    """
    order = _dominance_order(rows)
    ranked = rows[order]
    change = np.ones(len(order) + 1, dtype=bool)
    change[1:-1] = np.any(ranked[1:] != ranked[:-1], axis=1)
    bounds = np.flatnonzero(change)
    return order, bounds, ~_dominated(ranked[bounds[:-1]], strict)


def weak_pareto_frontier(points: Sequence) -> list:
    """Points not strictly exceeded in every component by another point.

    Input order is preserved and duplicates are retained; comparisons are
    exact (no epsilon), since the capacity values feeding this are
    deterministic functions of the channel.
    """
    order, bounds, kept = _frontier_runs(_rows(points, "weak_pareto_frontier"), strict=True)
    keep = order[np.repeat(kept, np.diff(bounds))]
    return [points[i] for i in np.sort(keep).tolist()]


def pareto_frontier(points: Sequence) -> list:
    """Points whose only componentwise-dominating point is themselves.

    Exact duplicates collapse to their first occurrence. The result is always
    a subset of the weak frontier of the same input.
    """
    order, bounds, kept = _frontier_runs(_rows(points, "pareto_frontier"), strict=False)
    return [points[i] for i in np.sort(order[bounds[:-1][kept]]).tolist()]


def capacity_set(channel: ChannelModel) -> list[CapacityPoint]:
    """Every power vector paired with its one-slot capacity vector."""
    powers = enumerate_power_vectors(channel)
    rates = channel.capacity_matrix(powers).tolist()
    return [CapacityPoint(power=s, rate=tuple(r)) for s, r in zip(powers, rates)]


def refined_power_set(channel: ChannelModel) -> RefinedPowerSet:
    """The power vectors backing the Pareto frontier of the one-slot capacity set.

    Entries follow the enumeration order of each frontier capacity vector's
    first power vector. When several power vectors produce the same frontier
    capacity vector, the one with the smallest total transmit power is kept
    (lexicographic order breaks remaining ties, for determinism).
    """
    vectors = enumerate_power_vectors(channel)
    powers = np.array(vectors, dtype=float)
    rates = channel.capacity_matrix(powers)
    order, bounds, kept = _frontier_runs(rates, strict=False)
    starts, stops = bounds[:-1][kept], bounds[1:][kept]
    first = order[starts]  # each run's first power vector in enumeration order
    witness = first.copy()
    for r in np.flatnonzero(stops - starts > 1).tolist():
        run = order[starts[r] : stops[r]].tolist()
        witness[r] = min(run, key=lambda k: (sum(vectors[k]), vectors[k]))
    rank = np.argsort(first)
    return RefinedPowerSet(powers=powers[witness[rank]], rates=rates[first[rank]])


def one_slot_membership(channel: ChannelModel, mu) -> bool:
    """Whether rate vector mu is achievable in a single slot."""
    arr = np.asarray(mu, dtype=float)
    if arr.shape != (channel.num_pairs,):
        raise ValueError(f"rate vector has shape {arr.shape}, expected ({channel.num_pairs},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("rate vector must be finite")
    if np.any(arr < 0):
        raise ValueError("rate vector must be componentwise nonnegative")
    return bool((refined_power_set(channel).rates >= arr).all(axis=1).any())

from __future__ import annotations

import heapq
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from fhtp import ChannelModel, RefinedPowerSet, brute_force_min_time, refined_power_set, solver
from fhtp.solver import GOAL_EPS_FACTOR

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

CORPUS_SEED = 20260810
CORPUS_SIZE = 200
ORACLE_CAP = 4
TOLERANCE_EDGE_SEED = 20261017
TOLERANCE_EDGE_SIZE = 400


def example1_channel() -> ChannelModel:
    return ChannelModel(
        gains=((0.5, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.7)),
        noise=(0.1, 0.1, 0.1),
        power_sets=((0.0, 2.0),) * 3,
        slot_duration=1.0,
    )


def example2_channel() -> ChannelModel:
    return ChannelModel(
        gains=((0.2, 0.5, 0.5), (0.5, 0.2, 0.5), (0.5, 0.5, 0.2)),
        noise=(0.1, 0.1, 0.1),
        power_sets=((0.0, 2.0),) * 3,
        slot_duration=1.0,
    )


@pytest.fixture(scope="session")
def ex1():
    return example1_channel()


@pytest.fixture(scope="session")
def ex2():
    return example2_channel()


@dataclass
class Instance:
    channel: ChannelModel
    q0: np.ndarray
    refined: RefinedPowerSet
    oracle_p: int


def random_channel(rng: np.random.Generator) -> ChannelModel:
    n = int(rng.integers(2, 4))
    gains = rng.uniform(0.05, 1.0, (n, n))
    noise = rng.uniform(0.05, 0.3, n)
    power_sets = []
    for _ in range(n):
        extra = int(rng.integers(1, 3))  # set size 2 or 3 including the 0 level
        levels = sorted(float(p) for p in rng.uniform(0.5, 2.5, extra))
        power_sets.append((0.0, *levels))
    return ChannelModel(
        gains=tuple(tuple(float(g) for g in row) for row in gains),
        noise=tuple(float(w) for w in noise),
        power_sets=tuple(power_sets),
        slot_duration=1.0,
    )


def random_instance(rng: np.random.Generator) -> Instance:
    """Small instance whose optimum is at most ORACLE_CAP slots by construction.

    The backlog is a sub-unit fraction of the capacity delivered by k <= 4
    refined actions, so that very action sequence drains it within k slots.
    """
    channel = random_channel(rng)
    refined = refined_power_set(channel)
    k = int(rng.integers(1, ORACLE_CAP + 1))
    picks = rng.integers(0, len(refined), k)
    total = np.sum([refined.entries[i].rate for i in picks], axis=0) * channel.slot_duration
    q0 = rng.uniform(0.4, 0.95) * total
    oracle = brute_force_min_time(channel, q0, ORACLE_CAP, use_refined=True)
    assert oracle.p_star is not None
    return Instance(channel=channel, q0=q0, refined=refined, oracle_p=oracle.p_star)


def tolerance_edge_instances():
    """(channel, refined set, q0): backlogs that k <= ORACLE_CAP refined slots
    drain exactly, plus 0.3-0.99 of the drain tolerance.

    The goal test counts them drained after those k slots, so a bound that
    ignores the tolerance overestimates by one slot.
    """
    rng = np.random.default_rng(TOLERANCE_EDGE_SEED)
    for _ in range(TOLERANCE_EDGE_SIZE):
        channel = random_channel(rng)
        refined = refined_power_set(channel)
        picks = rng.integers(0, len(refined), int(rng.integers(1, ORACLE_CAP + 1)))
        exact = channel.slot_duration * np.sum([refined.entries[i].rate for i in picks], axis=0)
        eps = GOAL_EPS_FACTOR * max(1.0, float(np.max(exact)))
        yield channel, refined, exact + rng.uniform(0.3, 0.99, channel.num_pairs) * eps


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_instance(rng) for _ in range(CORPUS_SIZE)]


def solve_traced(monkeypatch, channel, q0, depth_cap=None):
    """`solve`, plus the queue of every node it expanded, root first.

    Records each heap pop of the search. The last pop is the goal, or the
    entry past the depth cap, and is not expanded, so it is left out.
    """
    popped = []

    def traced_pop(heap):
        entry = heapq.heappop(heap)
        popped.append(np.array(entry[3]))  # heap entry: (f, -g, counter, queue, ...)
        return entry

    with monkeypatch.context() as m:
        m.setattr(solver, "heappop", traced_pop)
        solution = solver.solve(channel, q0, depth_cap)
    return solution, popped[:-1]

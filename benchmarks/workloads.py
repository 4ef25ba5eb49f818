"""Seeded generators for the benchmark's decision requests.

A request is a scenario document (the JSON shape ``fhtp check`` reads) plus
the ``cutoff`` flag to decide it with. Request ``i`` of a workload depends
only on the workload seed and ``i``, so a run can draw as many as it needs
and the same seed always yields the same sequence.

Every generator bounds the optimum slot count p* by construction (no
instance is ever dropped or redrawn because it is slow):

- fading-mc: p* is cut off at the horizon T=5 by the check itself;
- deep-search: each backlog is under 2.5 solo-peak slots of its pair, so
  serving the pairs one at a time drains it in at most 3*3 = 9 slots;
- wide-search / wide-region: the backlog is a fraction below 1 of the rates
  summed over k one-slot rate vectors, so those k slots drain it (p* <= k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

SLOT = 1.0


@dataclass(frozen=True)
class Request:
    index: int
    doc: dict
    cutoff: bool


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *key)))


def _doc(gains, noise, power_sets, horizon: int, target) -> dict:
    return {
        "num_pairs": len(noise),
        "horizon": horizon,
        "slot_duration": SLOT,
        "power_sets": [list(map(float, s)) for s in power_sets],
        "noise": [float(w) for w in noise],
        "gains": [[float(g) for g in row] for row in gains],
        "target_rate": [float(x) for x in target],
    }


def _uniform_channel(rng: np.random.Generator, pairs: int):
    # same ranges as the test suite's random channels
    gains = rng.uniform(0.05, 1.0, (pairs, pairs))
    noise = rng.uniform(0.05, 0.3, pairs)
    return gains, noise


def capacity_matrix(gains: np.ndarray, noise: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Shannon rates of every power vector (row of ``powers``), one row each.

    An independent restatement of the channel model, used to draw targets
    and to replay schedules without going through the code under test.
    """
    received = powers[:, :, None] * gains[None, :, :]  # [k, m, n]: Tx m at Rx n
    desired = np.einsum("knn->kn", received)
    interference = received.sum(axis=1) - desired
    return np.log2(1.0 + desired / (noise[None, :] + interference))


def frontier_rates(gains: np.ndarray, noise: np.ndarray, levels) -> np.ndarray:
    """Pareto-optimal one-slot rate vectors, as rows."""
    pairs = len(noise)
    powers = np.array(list(itertools.product(levels, repeat=pairs)), dtype=float)
    rates = capacity_matrix(gains, noise, powers)
    ge = np.all(rates[:, None, :] >= rates[None, :, :], axis=2)  # [a, b]: a >= b
    gt = np.any(rates[:, None, :] > rates[None, :, :], axis=2)
    dominated = np.any(ge & gt, axis=0)
    return rates[~dominated]


def fading_mc(seed: int, index: int) -> Request:
    """The paper's EBF experiment: 3 pairs, levels {0,2}, T=5, target (1,1,1).

    Every request redraws the whole channel under Nakagami-m fading; m cycles
    through 1..5 so each run holds the same mix of shapes.
    """
    from fhtp.fading import FadingConfig, sample_channel

    config = FadingConfig(m=float(1 + index % 5))
    channel = sample_channel(config, _rng(seed, 0, index))
    doc = _doc(channel.gains, channel.noise, channel.power_sets, config.horizon, config.target_rate)
    return Request(index, doc, cutoff=True)


# One strong-interference channel (cross gains up to 0.95 against direct
# gains of 0.35-0.57); every request jitters it. A population of unrelated
# random channels mixes p* = 6, 7 and 8, whose solve times differ by 4x each,
# so the latency quantiles would depend on the mix a seed happens to draw.
DEEP_GAINS = ((0.536, 0.953, 0.187), (0.951, 0.346, 0.452), (0.836, 0.439, 0.572))
DEEP_NOISE = (0.057, 0.238, 0.185)
DEEP_SOLO_SLOTS = (1.83, 2.288, 1.803)  # backlog in slots of the pair's solo peak rate
JITTER = 0.05


def _jitter(rng: np.random.Generator, base) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    return base * rng.uniform(1.0 - JITTER, 1.0 + JITTER, base.shape)


def deep_search(seed: int, index: int) -> Request:
    """3 pairs, levels {0,2}; backlogs of about 2 solo-peak slots; exhaustive."""
    rng = _rng(seed, 1, index)
    gains, noise = _jitter(rng, DEEP_GAINS), _jitter(rng, DEEP_NOISE)
    peak = np.log2(1.0 + np.diag(gains) * 2.0 / noise)
    backlog = _jitter(rng, DEEP_SOLO_SLOTS) * peak * SLOT
    horizon = 7
    doc = _doc(gains, noise, [(0.0, 2.0)] * 3, horizon, backlog / (SLOT * horizon))
    return Request(index, doc, cutoff=False)


# As for deep-search, one channel jittered per request. The backlog is
# 85-95% of what the three power vectors below deliver together, so p* is 3
# or less and almost always exactly 3.
WIDE_GAINS = (
    (0.131, 0.275, 0.811, 0.603),
    (0.139, 0.461, 0.505, 0.202),
    (0.748, 0.158, 0.422, 0.541),
    (0.459, 0.607, 0.751, 0.958),
)
WIDE_NOISE = (0.121, 0.212, 0.224, 0.123)
WIDE_POWERS = ((2.0, 0.0, 2.0, 2.0), (2.0, 2.0, 0.0, 1.0), (0.0, 2.0, 1.0, 2.0))
LEVELS_3 = (0.0, 1.0, 2.0)


def wide_search(seed: int, index: int) -> Request:
    """4 pairs, levels {0,1,2}; backlog below what 3 fixed slots deliver."""
    rng = _rng(seed, 2, index)
    gains, noise = _jitter(rng, WIDE_GAINS), _jitter(rng, WIDE_NOISE)
    delivered = capacity_matrix(gains, noise, np.array(WIDE_POWERS)).sum(axis=0) * SLOT
    backlog = rng.uniform(0.85, 0.95) * delivered
    horizon = 3
    doc = _doc(gains, noise, [LEVELS_3] * 4, horizon, backlog / (SLOT * horizon))
    return Request(index, doc, cutoff=False)


WIDE_REGION_CHANNELS = 4


def wide_region(seed: int, index: int) -> Request:
    """5 pairs, levels {0,1,2}; a few channels, each with many one-slot targets."""
    gains, noise = _uniform_channel(_rng(seed, 3, index % WIDE_REGION_CHANNELS), 5)
    rng = _rng(seed, 4, index)
    rates = frontier_rates(gains, noise, LEVELS_3)
    backlog = rng.uniform(0.4, 0.95) * rates[rng.integers(0, len(rates))] * SLOT
    doc = _doc(gains, noise, [LEVELS_3] * 5, 1, backlog / SLOT)
    return Request(index, doc, cutoff=False)


WORKLOADS: dict[str, Callable[[int, int], Request]] = {
    "fading-mc": fading_mc,
    "deep-search": deep_search,
    "wide-search": wide_search,
    "wide-region": wide_region,
}

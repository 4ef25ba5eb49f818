"""Random channel draws under Nakagami-m fading and branching-factor sweeps.

Each trial redraws every power gain independently (squared Nakagami-m
amplitude, i.e. Gamma with shape m and mean omega), runs the achievability
check on a fixed target, and records the search statistics. Trials own
deterministic per-index RNG streams, so serial and parallel execution
produce identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import InfeasibleError, SizeLimitError
from .policy import check_achievability


def _check_shape(m: float, name: str) -> None:
    if not (math.isfinite(m) and m >= 0.5):
        raise ValueError(f"Nakagami shape {name} must be finite and at least 0.5, got {m!r}")


def _check_mean_power(omega: float, name: str) -> None:
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"mean power {name} must be finite and positive, got {omega!r}")


@dataclass(frozen=True)
class FadingConfig:
    """One Monte Carlo setting: fading shape plus the fixed base scenario.

    The mean powers default to the direct/cross gains of the bundled worked
    example; pick others freely, the sweep is qualitative either way.
    """

    m: float
    mean_power_direct: float = 0.6
    mean_power_cross: float = 0.2
    trials: int = 500
    seed: int = 0
    horizon: int = 5
    slot_duration: float = 1.0
    power_sets: tuple[tuple[float, ...], ...] = ((0.0, 2.0),) * 3
    noise: tuple[float, ...] = (0.1, 0.1, 0.1)
    target_rate: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_shape(self.m, "m")
        _check_mean_power(self.mean_power_direct, "mean_power_direct")
        _check_mean_power(self.mean_power_cross, "mean_power_cross")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    @property
    def num_pairs(self) -> int:
        return len(self.noise)


@dataclass
class EbfStats:
    m: float
    trials: int
    solved: int
    unachievable: int
    failed: int
    avg_ebf: float
    avg_expanded: float
    avg_wall_ms: float
    achievable_fraction: float
    max_refined_size: int


def nakagami_power_gain(m: float, omega: float, rng: np.random.Generator) -> float:
    """One power-gain draw: squared Nakagami-m amplitude with mean omega."""
    _check_shape(m, "m")
    _check_mean_power(omega, "omega")
    return float(rng.gamma(shape=m, scale=omega / m))


def sample_channel(config: FadingConfig, rng: np.random.Generator) -> ChannelModel:
    """Channel with every gain redrawn; noise, powers and slot length are fixed."""
    n = config.num_pairs
    gains = [
        [
            nakagami_power_gain(
                config.m,
                config.mean_power_direct if i == j else config.mean_power_cross,
                rng,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ChannelModel(
        gains=tuple(tuple(row) for row in gains),
        noise=config.noise,
        power_sets=config.power_sets,
        slot_duration=config.slot_duration,
    )


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


def _run_trial(args) -> tuple[str, float, float, float, int]:
    config, index = args
    rng = _trial_rng(config.seed, index)
    channel = sample_channel(config, rng)
    try:
        report = check_achievability(channel, config.target_rate, config.horizon, cutoff=True)
    except (InfeasibleError, SizeLimitError):
        return ("failed", 0.0, 0.0, 0.0, 0)
    s = report.stats
    if not report.achievable:
        return ("unachievable", 0.0, 0.0, 0.0, s.refined_size)
    return ("solved", s.ebf, float(s.expanded_nodes), s.wall_time * 1e3, s.refined_size)


def ebf_experiment(config: FadingConfig, jobs: int = 1) -> EbfStats:
    """Average branching factor and node counts over ``config.trials`` draws.

    Only trials where the target is achievable enter the averages; draws where
    the cutoff certifies unachievability, or that error out, are counted
    separately and never abort the batch.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    work = [(config, i) for i in range(config.trials)]
    if jobs > 1:
        # imported here: multiprocessing is a noticeable share of `import fhtp`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_trial, work, chunksize=16))
    else:
        outcomes = [_run_trial(w) for w in work]

    solved = [o for o in outcomes if o[0] == "solved"]
    unachievable = sum(1 for o in outcomes if o[0] == "unachievable")
    failed = sum(1 for o in outcomes if o[0] == "failed")
    count = len(solved)
    avg = lambda idx: (sum(o[idx] for o in solved) / count) if count else math.nan
    return EbfStats(
        m=config.m,
        trials=config.trials,
        solved=count,
        unachievable=unachievable,
        failed=failed,
        avg_ebf=avg(1),
        avg_expanded=avg(2),
        avg_wall_ms=avg(3),
        achievable_fraction=count / config.trials,
        max_refined_size=max((o[4] for o in outcomes), default=0),
    )

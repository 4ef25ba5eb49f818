import math

import numpy as np
import pytest

from fhtp import (
    FadingConfig,
    ebf_experiment,
    nakagami_power_gain,
    refined_power_set,
    sample_channel,
)
from fhtp.fading import _trial_rng

SMALL = dict(trials=40, seed=1234)


def test_gamma_draw_mean():
    rng = np.random.default_rng(0)
    draws = [nakagami_power_gain(3.0, 0.5, rng) for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)


def test_rayleigh_special_case_variance():
    # m=1 is exponential power: variance equals the squared mean
    rng = np.random.default_rng(1)
    draws = np.array([nakagami_power_gain(1.0, 2.0, rng) for _ in range(200_000)])
    assert draws.mean() == pytest.approx(2.0, rel=0.02)
    assert draws.var() == pytest.approx(4.0, rel=0.05)


def test_omega_is_a_pure_scale():
    a = [nakagami_power_gain(2.5, 1.0, np.random.default_rng(7)) for _ in range(100)]
    b = [nakagami_power_gain(2.5, 2.0, np.random.default_rng(7)) for _ in range(100)]
    assert all(y == 2.0 * x for x, y in zip(a, b))


def test_invalid_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        nakagami_power_gain(0.4, 1.0, rng)
    with pytest.raises(ValueError):
        nakagami_power_gain(1.0, 0.0, rng)
    with pytest.raises(ValueError):
        FadingConfig(m=0.2)
    with pytest.raises(ValueError):
        FadingConfig(m=1.0, trials=0)
    # non-finite settings, each named in the message
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="m must be finite"):
            nakagami_power_gain(bad, 1.0, rng)
        with pytest.raises(ValueError, match="omega must be finite"):
            nakagami_power_gain(1.0, bad, rng)
        with pytest.raises(ValueError, match="m must be finite"):
            FadingConfig(m=bad)
        with pytest.raises(ValueError, match="mean_power_direct"):
            FadingConfig(m=1.0, mean_power_direct=bad)
        with pytest.raises(ValueError, match="mean_power_cross"):
            FadingConfig(m=1.0, mean_power_cross=bad)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            ebf_experiment(FadingConfig(m=1.0, trials=1), jobs=jobs)


def test_sample_channel_reproducible_and_positive():
    config = FadingConfig(m=2.0, trials=1, seed=9)
    first = sample_channel(config, np.random.default_rng(9))
    second = sample_channel(config, np.random.default_rng(9))
    assert first.gains == second.gains
    assert all(g > 0 for row in first.gains for g in row)
    assert first.noise == config.noise
    assert first.power_sets == config.power_sets


def test_large_m_concentrates_direct_gains():
    config = FadingConfig(m=200.0, mean_power_direct=0.6, trials=1, seed=0)
    rng = np.random.default_rng(0)
    diag = []
    for _ in range(200):
        channel = sample_channel(config, rng)
        diag.extend(channel.gains[i][i] for i in range(3))
    assert np.std(diag) < 0.1 * 0.6
    assert np.mean(diag) == pytest.approx(0.6, rel=0.05)


def test_experiment_seeded_reproducibility():
    a = ebf_experiment(FadingConfig(m=2.0, **SMALL))
    b = ebf_experiment(FadingConfig(m=2.0, **SMALL))
    deterministic = lambda s: (s.m, s.trials, s.solved, s.unachievable, s.failed,
                               s.avg_ebf, s.avg_expanded, s.max_refined_size)
    assert deterministic(a) == deterministic(b)


def test_experiment_counts_and_bounds():
    stats = ebf_experiment(FadingConfig(m=3.0, **SMALL))
    assert stats.solved + stats.unachievable + stats.failed == stats.trials
    assert stats.solved > 0
    assert stats.avg_ebf <= stats.max_refined_size
    assert stats.achievable_fraction == stats.solved / stats.trials
    assert math.isfinite(stats.avg_wall_ms)


def test_max_refined_size_is_the_largest_trial_frontier():
    # the size comes from the solve's own stats, not from a second build
    config = FadingConfig(m=3.0, **SMALL)
    sizes = [
        len(refined_power_set(sample_channel(config, _trial_rng(config.seed, i))))
        for i in range(config.trials)
    ]
    assert ebf_experiment(config).max_refined_size == max(sizes)


def test_ebf_accounting_matches_plain_solve():
    # the achievability path must report the same search statistics as a
    # direct solve of the equivalent backlog (fixed gains, no sampling)
    from fhtp import check_achievability, solve
    from tests.conftest import example1_channel

    channel = example1_channel()
    report = check_achievability(channel, [1.0, 1.0, 1.0], 5, cutoff=True)
    direct = solve(channel, [5.0, 5.0, 5.0])
    assert report.stats.ebf == direct.stats.ebf
    assert report.stats.expanded_nodes == direct.stats.expanded_nodes


import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fhtp import ChannelModel, InfeasibleError

from .conftest import example1_channel


def test_sinr_all_on_first_pair(ex1):
    # desired 0.5*2 over noise 0.1 plus two interferers at 0.2*2 each
    assert ex1.sinr((2.0, 2.0, 2.0), 0) == pytest.approx(1.0 / 0.9)


def test_sinr_zero_power_is_zero(ex1):
    assert ex1.sinr((0.0, 2.0, 2.0), 0) == 0.0


def test_sinr_solo_transmitter(ex1):
    assert ex1.sinr((2.0, 0.0, 0.0), 0) == pytest.approx(10.0)


def test_sinr_index_out_of_range(ex1):
    with pytest.raises(IndexError):
        ex1.sinr((2.0, 0.0, 0.0), 3)


def test_capacity_solo_matches_published_rate(ex1):
    cap = ex1.capacity_vector((2.0, 0.0, 0.0))
    assert cap == pytest.approx([3.4594, 0.0, 0.0], abs=1e-4)
    assert cap[0] == pytest.approx(math.log2(11.0), rel=1e-12)


def test_capacity_all_zero_power(ex1):
    assert np.all(ex1.capacity_vector((0.0, 0.0, 0.0)) == 0.0)


def test_capacity_all_on(ex1):
    cap = ex1.capacity_vector((2.0, 2.0, 2.0))
    expected = [math.log2(1 + 1.0 / 0.9), math.log2(1 + 1.2 / 0.9), math.log2(1 + 1.4 / 0.9)]
    assert cap == pytest.approx(expected, rel=1e-12)
    assert cap[:2] == pytest.approx([1.0780, 1.2224], abs=1e-4)


def test_interference_free_rates(ex1):
    assert ex1.interference_free_rate(0) == pytest.approx(math.log2(11.0), rel=1e-12)
    assert ex1.interference_free_rate(2) == pytest.approx(math.log2(15.0), rel=1e-12)
    assert ex1.interference_free_rate(2) == pytest.approx(3.9069, abs=1e-4)


def test_interference_free_rate_degenerate_pair():
    channel = ChannelModel(
        gains=((0.5, 0.0), (0.0, 0.5)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0,)),
    )
    with pytest.raises(InfeasibleError):
        channel.interference_free_rate(1)


def test_interference_free_rate_equals_solo_capacity(ex1):
    # the heuristic denominator must match the solo full-power capacity bitwise
    for n in range(3):
        solo = [0.0] * 3
        solo[n] = ex1.max_power(n)
        assert ex1.capacity_vector(solo)[n] == ex1.interference_free_rate(n)


def test_validation_rejects_bad_models():
    with pytest.raises(ValueError):
        ChannelModel(gains=((1.0,),), noise=(0.0,), power_sets=((0.0, 1.0),))
    with pytest.raises(ValueError):
        ChannelModel(gains=((0.0,),), noise=(0.1,), power_sets=((0.0, 1.0),))
    with pytest.raises(ValueError):
        ChannelModel(gains=((1.0,),), noise=(0.1,), power_sets=((1.0, 2.0),))
    with pytest.raises(ValueError):
        ChannelModel(gains=((1.0, 0.2),), noise=(0.1,), power_sets=((0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(gains=((float("nan"),),), noise=(0.1,), power_sets=((0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(gains=((1.0,),), noise=(float("inf"),), power_sets=((0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(gains=((1.0,),), noise=(0.1,), power_sets=((0.0, float("inf")),))
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(gains=((1.0,),), noise=(0.1,), power_sets=((0.0, 1.0),), slot_duration=float("nan"))
    # finite, but a received power overflows a float
    with pytest.raises(ValueError, match="received power at receiver 0"):
        ChannelModel(gains=((1.0, 1e308), (1e308, 1.0)), noise=(0.1, 0.1), power_sets=((0, 2), (0, 2)))
    # finite, but a peak SINR overflows a float
    with pytest.raises(ValueError, match="peak SINR of pair 0"):
        ChannelModel(gains=((1e300, 0.2), (0.2, 1.0)), noise=(1e-10, 0.1), power_sets=((0, 2), (0, 2)))


@given(
    own=st.floats(0.1, 4.0),
    other_lo=st.floats(0.0, 4.0),
    bump=st.floats(0.01, 4.0),
)
def test_interference_only_hurts(own, other_lo, bump):
    channel = example1_channel()
    lo = channel.capacity_vector((own, other_lo, 0.0))
    hi = channel.capacity_vector((own, other_lo + bump, 0.0))
    assert hi[0] <= lo[0]


@given(st.integers(0, 2), st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_sinr_bounded_by_interference_free_peak(n, a, b, c):
    channel = example1_channel()
    s_max = channel.max_power(n)
    peak = channel.gains[n][n] * s_max / channel.noise[n]
    assert channel.sinr((a, b, c), n) <= peak + 1e-12

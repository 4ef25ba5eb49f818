import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fhtp import (
    ChannelModel,
    SizeLimitError,
    capacity_set,
    enumerate_power_vectors,
    one_slot_membership,
    pareto_frontier,
    refined_power_set,
    weak_pareto_frontier,
)
from fhtp import region

from .conftest import CORPUS_SEED, random_channel

# --- reference implementations --------------------------------------------
# The pure-Python region layer the vectorised one replaced. It is quadratic
# and slow, and it is the definition the fast code must match bit for bit.


def _key(point) -> tuple[float, ...]:
    return tuple(float(x) for x in point)


def reference_capacity_vector(channel: ChannelModel, s) -> np.ndarray:
    gains = np.array(channel.gains, dtype=float)
    sv = np.asarray(s, dtype=float)
    received = gains * sv[:, None]
    desired = np.diagonal(received).copy()
    interference = received.sum(axis=0) - desired
    return np.log2(1.0 + desired / (np.array(channel.noise) + interference))


def reference_weak_frontier(points) -> list:
    keys = [_key(p) for p in points]
    dim = len(keys[0])
    return [
        points[i]
        for i, b in enumerate(keys)
        if not any(all(a[j] > b[j] for j in range(dim)) for a in keys)
    ]


def reference_frontier(points) -> list:
    keys = [_key(p) for p in points]
    dim = len(keys[0])
    seen: set[tuple[float, ...]] = set()
    reps = []
    for i, k in enumerate(keys):
        if k not in seen:
            seen.add(k)
            reps.append(i)
    out = []
    for i in reps:
        b = keys[i]
        if not any(a != b and all(a[j] >= b[j] for j in range(dim)) for a in (keys[r] for r in reps)):
            out.append(points[i])
    return out


def reference_refined(channel: ChannelModel) -> list[tuple]:
    """(power, rate) entries of the refined set, by per-vector capacity and linear scans."""
    points = [
        (s, _key(reference_capacity_vector(channel, s)))
        for s in itertools.product(*channel.power_sets)
    ]
    entries = []
    for rate in reference_frontier([r for _, r in points]):
        candidates = [s for s, r in points if r == rate]
        entries.append((min(candidates, key=lambda pw: (sum(pw), pw)), rate))
    return entries


def entries_of(refined) -> list[tuple]:
    return [(e.power, e.rate) for e in refined.entries]


def channel_of(rng: np.random.Generator, pairs: int, levels) -> ChannelModel:
    return ChannelModel(
        gains=tuple(tuple(float(g) for g in row) for row in rng.uniform(0.05, 1.0, (pairs, pairs))),
        noise=tuple(float(w) for w in rng.uniform(0.05, 0.3, pairs)),
        power_sets=(tuple(levels),) * pairs,
    )

point_sets = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    min_size=1,
    max_size=24,
)


def test_enumeration_count_and_order(ex1):
    vectors = enumerate_power_vectors(ex1)
    assert len(vectors) == 8
    assert vectors == sorted(vectors)
    assert vectors[0] == (0.0, 0.0, 0.0)


def test_enumeration_single_pair_degenerate():
    channel = ChannelModel(gains=((1.0,),), noise=(0.1,), power_sets=((0.0,),))
    assert enumerate_power_vectors(channel) == [(0.0,)]


def test_enumeration_mixed_sizes():
    channel = ChannelModel(
        gains=((1.0, 0.1), (0.1, 1.0)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 1.0), (0.0, 1.0, 2.0)),
    )
    assert len(enumerate_power_vectors(channel)) == 6


def test_enumeration_cap(ex1, monkeypatch):
    monkeypatch.setattr(region, "ENUMERATION_CAP", 7)
    with pytest.raises(SizeLimitError, match="8"):
        enumerate_power_vectors(ex1)


def test_weak_frontier_keeps_incomparable_points():
    pts = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert weak_pareto_frontier(pts) == pts


def test_weak_frontier_single_point():
    assert weak_pareto_frontier([(2.0, 3.0)]) == [(2.0, 3.0)]


def test_weak_frontier_drops_strictly_dominated():
    assert weak_pareto_frontier([(1.0, 1.0), (2.0, 2.0)]) == [(2.0, 2.0)]


def test_frontier_requires_nonempty():
    with pytest.raises(ValueError):
        weak_pareto_frontier([])
    with pytest.raises(ValueError):
        pareto_frontier([])


def test_pareto_frontier_drops_weakly_dominated():
    assert pareto_frontier([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]


def test_pareto_frontier_single_point():
    assert pareto_frontier([(5.0, 5.0)]) == [(5.0, 5.0)]


def test_pareto_frontier_collapses_duplicates():
    assert pareto_frontier([(1.0, 2.0), (1.0, 2.0)]) == [(1.0, 2.0)]


def test_example1_capacity_frontier_is_seven_of_eight(ex1):
    rates = [p.rate for p in capacity_set(ex1)]
    frontier = pareto_frontier(rates)
    assert len(frontier) == 7
    assert (0.0, 0.0, 0.0) not in frontier


def test_refined_set_example1(ex1):
    refined = refined_power_set(ex1)
    assert len(refined) == 7
    assert [0.0, 0.0, 0.0] not in refined.powers.tolist()


def test_refined_set_single_pair_max_power():
    channel = ChannelModel(gains=((0.5,),), noise=(0.1,), power_sets=((0.0, 2.0),))
    refined = refined_power_set(channel)
    assert refined.powers.tolist() == [[2.0]]


def test_refined_set_excludes_origin_without_cross_interference():
    channel = ChannelModel(
        gains=((0.5, 0.0), (0.0, 0.5)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0, 2.0)),
    )
    refined = refined_power_set(channel)
    assert [0.0, 0.0] not in refined.powers.tolist()
    # no interference: transmitting everything at max dominates all else
    assert refined.powers.tolist() == [[2.0, 2.0]]


def test_refined_set_with_mute_pair():
    # pair 2 has no positive power level, so only pair 1's choice matters
    channel = ChannelModel(
        gains=((0.5, 0.0), (0.0, 0.5)),
        noise=(0.1, 0.1),
        power_sets=((0.0, 2.0), (0.0,)),
    )
    refined = refined_power_set(channel)
    assert refined.powers.tolist() == [[2.0, 0.0]]


def test_refined_set_deterministic(ex1):
    first = refined_power_set(ex1)
    second = refined_power_set(ex1)
    assert first.powers.tolist() == second.powers.tolist()
    assert [e.rate for e in first] == [e.rate for e in second]


def test_membership_zero_rate(ex1):
    assert one_slot_membership(ex1, [0.0, 0.0, 0.0])


def test_membership_all_on_capacity(ex1):
    mu = ex1.capacity_vector((2.0, 2.0, 2.0))
    assert one_slot_membership(ex1, mu)
    a_touch_more = mu.copy()
    a_touch_more[1] += 1e-5
    assert not one_slot_membership(ex1, a_touch_more)


def test_membership_beyond_peak(ex1):
    assert not one_slot_membership(ex1, [3.5, 0.0, 0.0])


def test_membership_rejects_negative(ex1):
    with pytest.raises(ValueError):
        one_slot_membership(ex1, [-0.1, 0.0, 0.0])
    # a target of the wrong length, or a non-finite one, is rejected too
    with pytest.raises(ValueError, match="shape"):
        one_slot_membership(ex1, [1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        one_slot_membership(ex1, [float("nan"), 0.0, 0.0])


@given(point_sets)
def test_pareto_subset_of_weak(points):
    weak = {tuple(p) for p in weak_pareto_frontier(points)}
    strict = [tuple(p) for p in pareto_frontier(points)]
    assert set(strict) <= weak


@given(point_sets)
def test_pareto_idempotent(points):
    once = pareto_frontier(points)
    assert pareto_frontier(once) == once


@given(point_sets)
def test_every_point_dominated_by_some_frontier_point(points):
    frontier = pareto_frontier(points)
    for p in points:
        assert any(all(f[j] >= p[j] for j in range(3)) for f in frontier)


@given(point_sets)
def test_weak_frontier_preserves_order_and_duplicates(points):
    weak = weak_pareto_frontier(points)
    it = iter(points)
    for w in weak:  # subsequence of the input
        for q in it:
            if q == w:
                break
        else:
            pytest.fail("weak frontier is not an ordered subsequence of the input")


@given(point_sets)
def test_frontiers_match_reference(points):
    assert pareto_frontier(points) == reference_frontier(points)
    assert weak_pareto_frontier(points) == reference_weak_frontier(points)


def test_frontiers_match_reference_across_blocks():
    # more points than one dominance tile, with many duplicates and equal sums
    rng = np.random.default_rng(5)
    points = [tuple(int(v) for v in row) for row in rng.integers(0, 12, (700, 3))]
    points += [tuple(float(v) for v in row) for row in rng.uniform(0.0, 12.0, (300, 3))]
    assert pareto_frontier(points) == reference_frontier(points)
    assert weak_pareto_frontier(points) == reference_weak_frontier(points)


def test_frontier_rejects_non_finite_points():
    with pytest.raises(ValueError, match="finite"):
        pareto_frontier([(1.0, float("nan")), (0.0, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        weak_pareto_frontier([(1.0, float("inf"))])


def test_capacity_vector_is_a_matrix_row():
    rng = np.random.default_rng(CORPUS_SEED)
    for _ in range(50):
        channel = random_channel(rng)
        powers = enumerate_power_vectors(channel)
        matrix = channel.capacity_matrix(powers)
        for s, row in zip(powers, matrix):
            single = channel.capacity_vector(s)
            assert single.tolist() == row.tolist()
            assert single.tolist() == channel.capacity_matrix([s])[0].tolist()
            assert single.tolist() == reference_capacity_vector(channel, s).tolist()


def test_capacity_matrix_rejects_wrong_shape(ex1):
    with pytest.raises(ValueError):
        ex1.capacity_matrix([(0.0, 2.0)])
    with pytest.raises(ValueError):
        ex1.capacity_matrix((0.0, 2.0, 2.0))


def test_refined_set_matches_reference_on_corpus_channels(corpus, ex1, ex2):
    for channel in [ex1, ex2] + [inst.channel for inst in corpus]:
        assert entries_of(refined_power_set(channel)) == reference_refined(channel)


def test_refined_set_witness_ties():
    # pair 1's rate rounds to 0 and it interferes with no one, so its three
    # levels give equal rate vectors: 27 power vectors, 9 distinct rates
    channel = ChannelModel(
        gains=((0.5, 0.0, 0.3), (0.0, 1e-20, 0.0), (0.2, 0.0, 0.7)),
        noise=(0.1, 1.0, 0.1),
        power_sets=((0.0, 1.0, 2.0),) * 3,
    )
    refined = refined_power_set(channel)
    assert entries_of(refined) == reference_refined(channel)
    assert refined.powers.tolist() == [[0, 0, 2], [1, 0, 2], [2, 0, 0], [2, 0, 1], [2, 0, 2]]


def test_refined_set_arrays_are_read_only_rows_of_entries(ex1):
    refined = refined_power_set(ex1)
    assert refined.powers.shape == refined.rates.shape == (len(refined), ex1.num_pairs)
    assert refined.powers.tolist() == [list(e.power) for e in refined]
    assert refined.rates.tolist() == [list(e.rate) for e in refined]
    for rows in (refined.powers, refined.rates):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0
    # the arrays stay out of equality and hashing
    assert refined == refined_power_set(ex1)
    assert hash(refined) == hash(refined_power_set(ex1))


small_channels = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda diag, cross, noise, levels: ChannelModel(
            gains=tuple(tuple(diag[m] if m == k else cross[m][k] for k in range(n)) for m in range(n)),
            noise=tuple(noise),
            power_sets=tuple((0.0, *s) for s in levels),
        ),
        # a desired gain of 1e-20 gives a rate that rounds to exactly 0
        st.lists(st.sampled_from([1e-20, 0.2, 0.5, 1.0]), min_size=n, max_size=n),
        st.lists(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.3]), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.1, 1.0]), min_size=n, max_size=n),
        # an empty list is the single-level power set {0}
        st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0]), max_size=2), min_size=n, max_size=n),
    )
)


@given(small_channels)
def test_refined_set_matches_reference_on_small_channels(channel):
    assert entries_of(refined_power_set(channel)) == reference_refined(channel)


@pytest.mark.parametrize("pairs", [5, 6])
def test_refined_set_matches_reference_many_pairs(pairs):
    rng = np.random.default_rng(pairs)
    channel = channel_of(rng, pairs, (0.0, 1.0, 2.0))
    assert entries_of(refined_power_set(channel)) == reference_refined(channel)


def test_refined_set_seven_pairs_three_levels_is_fast():
    channel = channel_of(np.random.default_rng(7), 7, (0.0, 1.0, 2.0))
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        refined = refined_power_set(channel)
        best = min(best, time.perf_counter() - started)
    assert 0 < len(refined) <= 3**7
    assert best < 0.1

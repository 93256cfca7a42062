"""Map construction, parameter windows, conjugacies, and support cycles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import references as ref
from ergclt.maps import (
    Interval,
    PiecewiseLinearMap,
    cut_index,
    squared_param,
    tent_conjugacy,
    tent_fixed_point,
    tent_map,
    tent_period,
    tent_support_cycle,
    tent_window_exponent,
    three_branch_map,
)

from strategies import SHORT_IMAGE_MAP

SQRT2 = math.sqrt(2.0)


def test_tent_values():
    t2 = tent_map(2.0)
    assert t2(0.0) == 1.0
    assert t2(-1.0) == -1.0
    t15 = tent_map(1.5)
    xs = tent_fixed_point(1.5)
    assert xs == pytest.approx(0.2, abs=1e-15)
    assert t15(xs) == pytest.approx(xs, abs=1e-15)


def test_tent_closed_form_on_grid():
    for a in (1.1, 1.3, 1.5, 1.7, 2.0):
        t = tent_map(a)
        x = np.linspace(-1, 1, 1001)
        np.testing.assert_allclose(t(x), a - 1.0 - a * np.abs(x), atol=1e-14)


def test_tent_param_validation():
    for bad in (1.0, 0.5, 2.1, 1.0000001):
        with pytest.raises(ValueError):
            tent_map(bad)


def test_three_branch_values():
    t = three_branch_map()
    assert t(0.125) == 0.25
    assert t(0.5) == 0.5  # the halves are invariant
    assert t(1.0) == 1.0


def test_iterate():
    t2, tb, t15 = tent_map(2.0), three_branch_map(), tent_map(1.5)
    assert [0.0, t2(0.0), t2(t2(0.0))] == [0.0, 1.0, -1.0]
    assert [0.125, tb(0.125), tb(tb(0.125))] == [0.125, 0.25, 0.0]
    orbit = [0.2, t15(0.2), t15(t15(0.2)), t15(t15(t15(0.2)))]
    np.testing.assert_allclose(orbit, [0.2] * 4, atol=1e-15)


def test_evaluate_domain_error():
    with pytest.raises(ValueError):
        tent_map(2.0)(1.5)
    with pytest.raises(ValueError):
        three_branch_map()(-0.1)
    for bad in (np.nan, [0.3, np.nan]):
        with pytest.raises(ValueError, match="outside the map domain"):
            three_branch_map()(bad)


@pytest.mark.parametrize("a,expected", [(2.0, 1), (1.5, 1), (1.3, 2), (1.25, 2), (1.1, 4), (1.06, 8)])
def test_period_windows(a, expected):
    assert tent_period(a) == expected


def test_period_window_boundaries():
    # closed on the right: a = 2^(1/2^m) belongs to the period-2^m window
    assert tent_period(2.0 ** 0.5) == 2
    assert tent_period(2.0 ** 0.25) == 4


def test_period_domain_errors():
    for bad in (1.0, 2.5, 0.9):
        with pytest.raises(ValueError):
            tent_period(bad)


def test_tent_params():
    assert tent_window_exponent(1.3) == 1 and tent_period(1.3) == 2
    assert tent_fixed_point(1.3) == pytest.approx(0.3 / 2.3, abs=1e-15)


def test_conjugacy_inverse_pair():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 100)
    for i in (0, 1):
        fwd, inv = tent_conjugacy(1.3, i)
        np.testing.assert_allclose(fwd(inv(x)), x, atol=1e-12)


def test_conjugacy_known_point():
    _, inv = tent_conjugacy(1.3, 1)
    assert inv(1.0) == pytest.approx(-0.3 / 2.3, abs=1e-15)


@pytest.mark.parametrize("a", [1.05, 1.1, 1.2, 1.3, 1.41])
def test_conjugacy_intertwines_second_iterate(a):
    """phi o T_a^2 o phi^{-1} equals the squared-parameter tent on [-1, 1]."""
    t_a = tent_map(a)
    t_sq = tent_map(squared_param(a))
    rng = np.random.default_rng(int(a * 100))
    x = rng.uniform(-1, 1, 1000)
    for i in (0, 1):
        fwd, inv = tent_conjugacy(a, i)
        lifted = fwd(t_a(t_a(inv(x))))
        np.testing.assert_allclose(lifted, t_sq(x), atol=1e-10)


def test_conjugacy_rejects_large_parameter():
    with pytest.raises(ValueError):
        tent_conjugacy(1.5, 0)


def test_support_cycle_full_window():
    cyc = tent_support_cycle(2.0)
    assert cyc.period == 1
    iv = cyc.intervals[0]
    assert (iv.lo, iv.hi) == (-1.0, 1.0)


def test_support_cycle_two_intervals():
    cyc = tent_support_cycle(1.3)
    assert cyc.period == 2
    t = tent_map(1.3)
    # endpoint images computed by direct iteration cycle back and forth
    for j, iv in enumerate(cyc.intervals):
        nxt = cyc.intervals[(j + 1) % 2]
        img = t.image_of(iv)
        assert img.lo == pytest.approx(nxt.lo, abs=1e-10)
        assert img.hi == pytest.approx(nxt.hi, abs=1e-10)


def test_support_cycle_four_disjoint():
    cyc = tent_support_cycle(1.1)
    assert cyc.period == 4
    ivs = sorted(cyc.as_pairs())
    for (l1, h1), (l2, h2) in zip(ivs, ivs[1:]):
        assert h1 < l2  # pairwise disjoint


@pytest.mark.parametrize("a", [2.0, 1.5, 1.3, 1.25, 1.1, 1.06])
def test_support_cycle_period_matches_window(a):
    assert tent_support_cycle(a).period == tent_period(a)


@pytest.mark.parametrize("a", [1.3, 1.25, 1.1, 1.06])
def test_support_cycle_cyclic_permutation(a):
    cyc = tent_support_cycle(a)
    t = tent_map(a)
    for j, iv in enumerate(cyc.intervals):
        nxt = cyc.intervals[(j + 1) % cyc.period]
        img = t.image_of(iv)
        assert abs(img.lo - nxt.lo) <= 1e-10 and abs(img.hi - nxt.hi) <= 1e-10


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_branch_images_stay_in_domain():
    for a in (1.1, 1.5, 2.0):
        t = tent_map(a)
        for (piece, s, c) in t.branches:
            for x in (piece.lo, piece.hi):
                assert t.domain.contains(s * x + c, tol=1e-9)


def test_branch_index_and_step_clamp_to_the_domain():
    """Points past either end take the end branch; images that overshoot the
    domain by rounding (up to the 1e-9 that construction allows) are clamped."""
    t = three_branch_map()
    x = np.array([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    assert t.branch_index(x).tolist() == [0, 0, 1, 1, 2, 2, 2]
    m = PiecewiseLinearMap(Interval(0.0, 1.0), [(Interval(0.0, 1.0), 1.0 + 1e-9, -5e-10)])
    assert m.step(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, (1.0 + 1e-9) * 0.5 - 5e-10, 1.0]


def test_flat_branch_is_rejected():
    """A zero-slope branch has no preimage density, so P is undefined there:
    the map is refused at construction, not dropped by the transfer."""
    with pytest.raises(ValueError, match="flat branch on \\[0.5, 1.0\\]"):
        PiecewiseLinearMap(Interval(0.0, 1.0), [(Interval(0.0, 0.5), 2.0, 0.0), (Interval(0.5, 1.0), 0.0, 0.5)])


@pytest.mark.parametrize("map_", [tent_map(1.3), tent_map(2.0), three_branch_map()], ids=["tent1.3", "tent2", "three"])
def test_call_is_step_on_the_domain(map_):
    """Evaluation is the domain check plus `step`: the same bits, for arrays and scalars."""
    x = np.linspace(map_.domain.lo, map_.domain.hi, 1001)
    assert map_(x).tobytes() == map_.step(x.copy()).tobytes()
    for v in x[::97]:
        assert np.float64(map_(float(v))).tobytes() == map_.step(np.array([v]))[:1].tobytes()


@given(st.sampled_from(["tent", "three-branch", "short-image"]), st.floats(1.0 + 2e-6, 2.0), st.data())
def test_property_branch_index_matches_searchsorted(kind, a, data):
    """Counting the inner edges at or below a point picks the branch that
    the binary search over all edges picked, on edges, one ulp from them and
    past either end of the domain."""
    map_ = {"tent": tent_map(a), "three-branch": three_branch_map(), "short-image": SHORT_IMAGE_MAP}[kind]
    edges = [x for (p, _, _) in map_.branches for x in (p.lo, p.hi)]
    on = data.draw(st.lists(st.sampled_from(edges), max_size=6))
    x = np.array(on + [float(np.nextafter(e, d)) for e in on for d in (-np.inf, np.inf)]
                 + data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8)))
    assert map_.branch_index(x).tolist() == ref.branch_index(map_, x).tolist()
    assert map_.step(x).tobytes() == ref.step(map_, x).tobytes()


def test_cut_index_counts_in_floats_and_words():
    x = np.array([-1.0, 0.25, 0.3, 0.75, 2.0, np.nan])
    assert cut_index(np.array([0.25, 0.25, 0.75]), x).tolist() == [0, 2, 2, 3, 3, 0]
    assert cut_index(np.array([]), x).tolist() == [0] * 6
    w = np.array([0, 2**62 - 1, 2**62, 2**64 - 1], dtype=np.uint64)
    assert cut_index(np.array([2**62, 2**63], dtype=np.uint64), w).tolist() == [0, 0, 1, 2]
    many = np.arange(300.0)
    assert cut_index(many, np.array([-1.0, 0.0, 299.0, 1e9])).tolist() == [0, 1, 300, 300]

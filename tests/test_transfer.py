"""Transfer-operator actions: exactness, duality, contraction, and the
summability diagnostics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergclt.densities import tent_density
from ergclt.maps import tent_map, three_branch_map
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import integrate_product
from ergclt.transfer import (
    DEAD_ITERATE_REL,
    NormalizedTransfer,
    condition_report,
    frobenius_perron,
    koopman,
    three_branch_transfer,
)

from strategies import affine_functions

FOUR_STEP = PAF.step([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, -1.0, -2.0, 2.0])


def random_step(rng, lo=-1.0, hi=1.0, pieces=7):
    inner = np.sort(rng.uniform(lo, hi, pieces - 1))
    bp = np.concatenate([[lo], inner, [hi]])
    return PAF.step(bp, rng.normal(size=pieces))


def test_tent2_annihilates_coordinate():
    out = frobenius_perron(tent_map(2.0), PAF.affine(-1, 1, 1, 0))
    assert out.sup_norm() == 0.0


def test_tent2_fixes_uniform():
    out = frobenius_perron(tent_map(2.0), PAF.constant(-1, 1, 0.5))
    assert np.abs(out(np.linspace(-0.999, 0.999, 101)) - 0.5).max() == 0.0


@pytest.mark.parametrize("a", [1.2, 1.5, 1.83, 2.0])
def test_conservation(a):
    rng = np.random.default_rng(int(a * 10))
    f = random_step(rng)
    pf = frobenius_perron(tent_map(a), f)
    assert pf.integral() == pytest.approx(f.integral(), abs=1e-12)


def test_three_branch_annihilates_four_step():
    assert frobenius_perron(three_branch_map(), FOUR_STEP).sup_norm() == 0.0


def test_three_branch_fixes_one_and_halves():
    one = PAF.constant(0, 1, 1.0)
    assert (frobenius_perron(three_branch_map(), one) - one).sup_norm() == 0.0
    left = PAF.step([0.0, 0.5, 1.0], [1.0, 0.0])
    assert (frobenius_perron(three_branch_map(), left) - left).sup_norm() == 0.0


def test_preimage_integration_oracle():
    """∫_A Pf dx must equal ∫_{T^{-1}A} f dx, with the preimage computed
    independently by inverting each affine branch."""
    rng = np.random.default_rng(42)
    for map_ in (tent_map(1.456), three_branch_map()):
        lo, hi = map_.domain.lo, map_.domain.hi
        for _ in range(50):
            f = random_step(rng, lo, hi)
            a, b = sorted(rng.uniform(lo, hi, 2))
            if b - a < 1e-3:
                continue
            pf = frobenius_perron(map_, f)
            lhs = pf.integral(a, b)
            rhs = 0.0
            for (piece, s, c) in map_.branches:
                p, q = sorted(((a - c) / s, (b - c) / s))
                p, q = max(p, piece.lo), min(q, piece.hi)
                if q > p:
                    rhs += f.integral(p, q)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_normalized_transfer_constants_and_conservation():
    g = tent_density(1.5, 1024)
    nt = NormalizedTransfer(tent_map(1.5), g)
    one = PAF.constant(-1, 1, 1.0)
    out = nt(one)
    core = np.linspace(-0.13, 0.49, 100)  # inside the invariant core for a=1.5
    # constants are preserved up to the Ulam bias of g
    np.testing.assert_allclose(out(core), 1.0, atol=5e-3)
    # conservation of the weighted integral is exact for any density
    rng = np.random.default_rng(1)
    f = random_step(rng)
    assert integrate_product([nt(f), g]) == pytest.approx(integrate_product([f, g]), abs=1e-10)
    # and constants pass through exactly when the density is exactly invariant
    tb = three_branch_transfer()
    one01 = PAF.constant(0, 1, 1.0)
    assert (tb(one01) - one01).sup_norm() <= 1e-14


def test_normalized_transfer_matches_raw_at_a2():
    g2 = tent_density(2.0)
    nt = NormalizedTransfer(tent_map(2.0), g2)
    rng = np.random.default_rng(2)
    f = random_step(rng)
    x = rng.uniform(-1, 1, 200)
    np.testing.assert_allclose(nt(f)(x), frobenius_perron(tent_map(2.0), f)(x), atol=1e-12)


def test_normalized_transfer_function_form():
    g = tent_density(2.0)
    f = PAF.affine(-1, 1, 1, 0)
    out = NormalizedTransfer(tent_map(2.0), g)(f)
    assert out.sup_norm() <= 1e-14


def test_koopman_inverts_transfer():
    """P_T(U_T f) = f for maps whose invariant density is exactly known."""
    rng = np.random.default_rng(3)
    tb = three_branch_transfer()
    f = random_step(rng, 0.0, 1.0)
    back = tb(koopman(three_branch_map(), f))
    assert (back - f).norm_l2(tb.gstar) <= 1e-10

    g2 = tent_density(2.0)
    nt2 = NormalizedTransfer(tent_map(2.0), g2)
    f2 = random_step(rng)
    back2 = nt2(koopman(tent_map(2.0), f2))
    assert (back2 - f2).norm_l2(g2) <= 1e-10


def test_koopman_isometry_and_constants():
    rng = np.random.default_rng(4)
    tb = three_branch_transfer()
    f = random_step(rng, 0.0, 1.0)
    uf = koopman(three_branch_map(), f)
    assert uf.norm_l1(tb.gstar) == pytest.approx(f.norm_l1(tb.gstar), abs=1e-10)
    c = PAF.constant(0, 1, 3.3)
    assert (koopman(three_branch_map(), c) - c).sup_norm() <= 1e-14


def test_duality_on_step_functions():
    """∫ (P_T f) g dν = ∫ f (g o T) dν."""
    rng = np.random.default_rng(5)
    tb = three_branch_transfer()
    t = three_branch_map()
    for _ in range(20):
        f = random_step(rng, 0.0, 1.0, 5)
        g = random_step(rng, 0.0, 1.0, 4)
        lhs = integrate_product([tb(f), g, tb.gstar])
        rhs = integrate_product([f, koopman(t, g), tb.gstar])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_contraction_in_l1_and_l2():
    rng = np.random.default_rng(6)
    # L1 contraction is exact for any reference density
    g = tent_density(1.7, 2048)
    nt = NormalizedTransfer(tent_map(1.7), g)
    for _ in range(10):
        f = random_step(rng)
        assert nt(f).norm_l1(g) <= f.norm_l1(g) + 1e-10
    # L2 contraction needs an exactly invariant density
    tb = three_branch_transfer()
    for _ in range(10):
        f = random_step(rng, 0.0, 1.0)
        pf = tb(f)
        assert pf.norm_l2(tb.gstar) <= f.norm_l2(tb.gstar) + 1e-10
        assert pf.norm_l1(tb.gstar) <= f.norm_l1(tb.gstar) + 1e-10


def test_composition_law():
    """Applying the operator m then n times equals m+n applications."""
    tb = three_branch_transfer()
    rng = np.random.default_rng(7)
    f = random_step(rng, 0.0, 1.0)
    once = f
    for _ in range(5):
        once = tb(once)
    three_two = f
    for _ in range(3):
        three_two = tb(three_two)
    for _ in range(2):
        three_two = tb(three_two)
    assert (once - three_two).sup_norm() <= 5 * 1e-12


def test_condition_report_tent2():
    g2 = tent_density(2.0)
    nt = NormalizedTransfer(tent_map(2.0), g2)
    rep = condition_report(PAF.affine(-1, 1, 1, 0), nt, K=64)
    target = 1.0 / math.sqrt(3.0)
    assert max(abs(v - target) for v in rep.V) <= 1e-12
    assert rep.theta == 0.0
    assert all(n == 0.0 for n in rep.iterate_norm2[1:])


def test_condition_report_three_branch():
    tb = three_branch_transfer()
    rep = condition_report(FOUR_STEP, tb, K=32)
    target = math.sqrt(2.5)
    assert max(abs(v - target) for v in rep.V) <= 1e-12


def test_condition_report_subadditivity_and_monotone_partials():
    g = tent_density(1.5, 1024)
    nt = NormalizedTransfer(tent_map(1.5), g)
    m = integrate_product([PAF.affine(-1, 1, 1, 0), g])
    h = PAF.affine(-1, 1, 1.0, -m)
    rep = condition_report(h, nt, K=24)
    V = rep.V
    for n in range(1, len(V) + 1):
        for k in range(1, len(V) + 1 - n):
            assert V[n + k - 1] <= V[n - 1] + V[k - 1] + 1e-9
    assert all(b >= a - 1e-15 for a, b in zip(rep.series_partial, rep.series_partial[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(rep.dyadic_partial, rep.dyadic_partial[1:]))
    assert rep.theta < 1.0


def test_condition_report_interpolation_bound():
    """||P^n f||_2 <= sqrt(||f||_inf ||P^n f||_1) numerically."""
    g = tent_density(1.5, 1024)
    nt = NormalizedTransfer(tent_map(1.5), g)
    m = integrate_product([PAF.affine(-1, 1, 1, 0), g])
    rep = condition_report(PAF.affine(-1, 1, 1.0, -m), nt, K=16)
    for n2, bound in zip(rep.iterate_norm2, rep.interp_bound):
        assert n2 <= bound + 1e-9


def test_condition_report_requires_centering():
    tb = three_branch_transfer()
    with pytest.raises(ValueError):
        condition_report(PAF.constant(0, 1, 1.0), tb, K=8)


def test_condition_report_requires_min_horizon():
    tb = three_branch_transfer()
    with pytest.raises(ValueError):
        condition_report(FOUR_STEP, tb, K=4)


def test_sandwich_ratio_stable_across_horizons():
    tb = three_branch_transfer()
    ratios = []
    for K in (64, 256, 1024):
        rep = condition_report(FOUR_STEP, tb, K=K)
        ratios.append(rep.series_partial[-1] / rep.dyadic_partial[-1])
    assert max(ratios) / min(ratios) <= 1.5


# ----------------------------------------------------------------------
# property tests on random inputs
# ----------------------------------------------------------------------

TENT_A = st.floats(math.sqrt(2.0), 2.0, exclude_min=True)


@st.composite
def maps_and_functions(draw):
    """A tent map with a in (sqrt(2), 2] or the three-branch map, and two
    random piecewise-affine functions on its domain."""
    map_ = draw(st.one_of(TENT_A.map(tent_map), st.just(three_branch_map())))
    lo, hi = map_.domain.lo, map_.domain.hi
    return map_, draw(affine_functions(lo, hi)), draw(affine_functions(lo, hi))


@given(maps_and_functions())
def test_property_mass_conservation(case):
    map_, f, _ = case
    assert frobenius_perron(map_, f).integral() == pytest.approx(f.integral(), abs=1e-12)


@given(maps_and_functions())
def test_property_adjointness(case):
    """∫ P(f) g dx = ∫ f (g o T) dx for the Lebesgue transfer operator."""
    map_, f, g = case
    lhs = integrate_product([frobenius_perron(map_, f), g])
    rhs = integrate_product([f, koopman(map_, g)])
    assert lhs == pytest.approx(rhs, abs=1e-11)


def assert_iterates_match_plain_loop(nt, v, step, max_lag=8):
    """nt.iterates(v, step) yields what the plain push -> prune -> dead-test
    loop computes and stops at the same lag; returns the live lag count."""
    got = list(itertools.islice(nt.iterates(v, step), max_lag))
    dead = DEAD_ITERATE_REL * v.norm_l1()
    expect = []
    for _ in range(max_lag):
        for _ in range(step):
            v = nt.push(v)
        v = v.pruned()
        if v.norm_l1() <= dead:
            break
        expect.append(v)
    assert len(got) == len(expect)
    for (w, l1), e in zip(got, expect):
        assert np.array_equal(w.breakpoints, e.breakpoints)
        assert np.array_equal(w.slopes, e.slopes) and np.array_equal(w.intercepts, e.intercepts)
        assert l1 == e.norm_l1()
    return len(got)


DYADIC_VALUES = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.floats(-3.0, 3.0), min_size=2**k, max_size=2**k))


@given(TENT_A, st.integers(0, 2**16), st.sampled_from([1, 2]))
def test_property_iterates_match_plain_loop_tent(a, seed, step):
    """Centered steps, whose iterates decay and cross small norm ratios."""
    g = tent_density(a, 256)
    f = random_step(np.random.default_rng(seed))
    f = f - PAF.constant(-1.0, 1.0, integrate_product([f, g]))
    nt = NormalizedTransfer(tent_map(a), g)
    assert_iterates_match_plain_loop(nt, nt.weighted(f), step)


@given(DYADIC_VALUES, st.booleans(), st.sampled_from([1, 2]))
def test_property_iterates_match_plain_loop_three_branch(values, centered, step):
    """Steps on 2^k dyadic cells; centered on both invariant halves, their
    iterates die within k pushes, which exercises the stopping lag."""
    vals = np.array(values)
    half = len(vals) // 2
    if centered:
        vals[:half] -= vals[:half].mean()
        vals[half:] -= vals[half:].mean()
    nt = three_branch_transfer()
    f = PAF.step(np.linspace(0.0, 1.0, len(vals) + 1), vals)
    live = assert_iterates_match_plain_loop(nt, nt.weighted(f), step)
    if centered:
        assert live < 8

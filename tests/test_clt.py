"""Variance formulas: worked values, cross-method agreement, the parameter
recursion, and the non-ergodic profiles."""

import dataclasses
import json
import math

import numpy as np
import pytest

import references as ref
from ergclt import clt, piecewise
from ergclt.clt import (
    DivergenceError,
    _fit_slope,
    _geometric_tail,
    Observable,
    autocovariance_sequence,
    blocked_observable,
    sigma2_autocovariance,
    sigma2_resolvent,
    tent_mean,
    tent_observable,
    tent_sigma_recursion,
    tent_system,
    three_branch_system,
    variance_profile,
    variance_profile_dyadic,
    VarianceEstimate,
)
from ergclt.maps import (
    SupportCycle,
    squared_param,
    tent_conjugacy,
    tent_fixed_point,
    tent_support_cycle,
    tent_window_exponent,
)
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import PieceBudgetExceeded, integrate_product
from ergclt.simulate import sample_from_density
from ergclt.transfer import koopman

SQRT2 = math.sqrt(2.0)


def tent_sigma_recursion_alt(a, base):
    """The recursion in its product form over the fixed points x*(a^(2^k)),
    an independent check of the algebra behind tent_sigma_recursion."""
    m = tent_window_exponent(a)
    prod = 1.0
    for k in range(m):
        ak = a ** (2**k)
        prod *= tent_fixed_point(ak) * (ak - 1.0)
    return math.sqrt(base.sigma2) / (math.sqrt(2.0**m) * a ** (2**m - 1)) * prod


# ----------------------------------------------------------------------
# stationary means
# ----------------------------------------------------------------------

def test_tent_system_builds_one_map():
    """The system's map is its transfer's, so both see one plan store."""
    system = tent_system(1.3)
    assert system.map is system.transfer.map
    assert system.density is system.transfer.gstar


def test_mean_at_two_is_exactly_zero():
    assert tent_mean(2.0) == 0.0


def test_mean_at_sqrt2_closed_form():
    # recursion with the base mean zero: (a-1)/(2a) at a = sqrt(2)
    expected = (SQRT2 - 1.0) / (2.0 * SQRT2)
    assert tent_mean(SQRT2) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("a", [1.2, 1.3, 1.4])
def test_mean_recursion_vs_direct_quadrature(a):
    coord = PAF.affine(-1, 1, 1, 0)
    direct = integrate_product([coord, ref.tent_ulam_density(a, 4096)])
    assert tent_mean(a) == pytest.approx(direct, abs=1e-3)


# ----------------------------------------------------------------------
# observables
# ----------------------------------------------------------------------

def test_observable_at_two_is_identity():
    h = tent_observable(2.0)
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(h.f(x), x, atol=1e-15)


@pytest.mark.parametrize("a", [2.0, 1.6, 1.3])
def test_observable_is_centered(a):
    system = tent_system(a)
    assert abs(integrate_product([system.observable.f, system.density])) <= 1e-6


def test_observable_norm_at_two():
    sys2 = tent_system(2.0)
    sq = integrate_product([sys2.observable.f, sys2.observable.f, sys2.density])
    assert sq == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_blocked_observable_identity_and_centering():
    sys15 = tent_system(1.5)
    h = sys15.observable
    assert blocked_observable(h, sys15.map, 1) is h
    h4 = blocked_observable(h, sys15.map, 4)
    assert abs(integrate_product([h4.f, sys15.density])) <= 1e-9


def test_blocked_observable_over_piece_budget_raises(monkeypatch):
    monkeypatch.setattr(piecewise, "MAX_PIECES", 10_000)
    sys_a = tent_system(1.02)
    with pytest.raises(PieceBudgetExceeded, match="pieces exceed the budget of 10000"):
        blocked_observable(sys_a.observable, sys_a.map, sys_a.components[0].period)


@pytest.mark.parametrize("a", [1.2, 1.3, 1.4])
def test_blocked_pair_pullback_identity(a):
    """(h_a + h_a o T_a) pulled back through the right conjugacy branch is a
    multiple of the squared-parameter observable."""
    sys_a = tent_system(a)
    sys_sq = tent_system(squared_param(a))
    xs = tent_fixed_point(a)
    pair = sys_a.observable.f + koopman(sys_a.map, sys_a.observable.f)
    _, inv = tent_conjugacy(a, 0)
    x = np.linspace(-1, 1, 1000)
    lhs = pair(inv(x))
    rhs = ((1.0 - a) * xs / a) * sys_sq.observable.f(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ----------------------------------------------------------------------
# autocovariances
# ----------------------------------------------------------------------

def test_autocovariance_lag0_is_norm():
    sys2 = tent_system(2.0)
    terms, _ = autocovariance_sequence(sys2.observable, sys2.transfer, 0)
    assert terms[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_autocovariance_vanishes_at_two():
    sys2 = tent_system(2.0)
    terms, _ = autocovariance_sequence(sys2.observable, sys2.transfer, 5)
    for j in (1, 2, 5):
        assert abs(terms[j]) <= 1e-12


def test_autocovariance_orbit_average_cross_check():
    """Operator quadrature vs a time-average estimate along stationary orbits."""
    a = 1.6
    system = tent_system(a)
    exact = autocovariance_sequence(system.observable, system.transfer, 3)[0][3]
    paths, n = 400, 2048
    inits = sample_from_density(system.density, paths, 77)
    x = inits.copy()
    heval = system.observable.f
    vals = np.empty((paths, n))
    for j in range(n):
        vals[:, j] = heval(x)
        x = system.map.step(x)
    prods = vals[:, :-3] * vals[:, 3:]
    est = prods.mean()
    stderr = prods.mean(axis=1).std(ddof=1) / math.sqrt(paths)
    assert abs(est - exact) <= 3 * stderr


# ----------------------------------------------------------------------
# variance estimates
# ----------------------------------------------------------------------

def test_resolvent_worked_example():
    sys2 = tent_system(2.0)
    est = sigma2_resolvent(sys2.observable, sys2.transfer)
    assert est.truncation_J == 0
    assert est.tail_bound == 0.0
    assert abs(est.sigma2 - 1.0 / 3.0) <= 1e-12


def test_resolvent_zero_observable():
    sys2 = tent_system(2.0)
    zero = Observable(f=PAF.constant(-1, 1, 0.0), centered_wrt="any")
    assert sigma2_resolvent(zero, sys2.transfer).sigma2 == 0.0


def test_autocov_worked_example():
    sys2 = tent_system(2.0)
    est = sigma2_autocovariance(sys2.observable, sys2.map, sys2.transfer, tent_support_cycle(2.0))
    assert abs(est.sigma2 - 1.0 / 3.0) <= 1e-8


@pytest.mark.parametrize("a", [1.5, 1.7, 2.0])
def test_estimator_agreement_mixing_windows(a):
    system = tent_system(a)
    res = sigma2_resolvent(system.observable, system.transfer)
    auto = sigma2_autocovariance(system.observable, system.map, system.transfer,
                                 tent_support_cycle(a))
    assert abs(res.sigma2 - auto.sigma2) <= res.tail_bound + auto.tail_bound + 1e-8


@pytest.mark.parametrize("J", [0, 8, 64])
def test_resolvent_is_autocov_at_period_1(J):
    """At period 1 the autocov window is the whole support, so both routes are
    one lag sum: the same bits, or the same DivergenceError message, for every
    a in (√2, 2].  `variance` writes the autocov record under both keys."""
    def record(route):
        try:
            return json.dumps(dataclasses.asdict(route()) | {"method": None})
        except DivergenceError as exc:
            return str(exc)
    for a in np.linspace(2.0, SQRT2, 16, endpoint=False):
        s = tent_system(float(a))
        assert record(lambda: sigma2_resolvent(s.observable, s.transfer, J=J)) == record(
            lambda: sigma2_autocovariance(s.observable, s.map, s.transfer, s.components[0], J=J))


def test_resolvent_requires_centering():
    sys2 = tent_system(2.0)
    with pytest.raises(ValueError):
        sigma2_resolvent(Observable(f=PAF.constant(-1, 1, 1.0), centered_wrt="x"), sys2.transfer)


def test_resolvent_diverges_on_periodic_window():
    """Below sqrt(2) the plain iterate series does not decay; the divergence
    diagnostics must refuse rather than return a number."""
    sys13 = tent_system(1.3)
    with pytest.raises(DivergenceError):
        sigma2_resolvent(sys13.observable, sys13.transfer, J=32)


@pytest.mark.parametrize("c", [2.0, -3.0])
def test_scale_equivariance(c):
    sys15 = tent_system(1.5)
    h = sys15.observable
    hc = Observable(f=h.f * c, centered_wrt=h.centered_wrt)
    cycle = tent_support_cycle(1.5)
    base = sigma2_resolvent(h, sys15.transfer).sigma2
    assert sigma2_resolvent(hc, sys15.transfer).sigma2 == pytest.approx(c * c * base, abs=1e-10)
    base_a = sigma2_autocovariance(h, sys15.map, sys15.transfer, cycle).sigma2
    assert sigma2_autocovariance(hc, sys15.map, sys15.transfer, cycle).sigma2 == pytest.approx(
        c * c * base_a, abs=1e-10)
    tb = three_branch_system()
    base_d = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=6)
    hc3 = Observable(f=tb.observable.f * c, centered_wrt="three_branch")
    scaled = variance_profile_dyadic(hc3, tb.transfer, tb.components, J=6)
    for (_, v0), (_, v1) in zip(base_d.components, scaled.components):
        assert v1 == pytest.approx(c * c * v0, abs=1e-10)


# ----------------------------------------------------------------------
# the closed-form recursion
# ----------------------------------------------------------------------

def test_recursion_at_sqrt2_closed_form():
    # plugging the base deviation 1/sqrt(3) into the rescaling at a = sqrt(2)
    # gives (sqrt(2)-1)^3 / (2 sqrt(3))
    base = VarianceEstimate(sigma2=1.0 / 3.0, method="resolvent")
    sigma = tent_sigma_recursion(SQRT2, base)
    expected = (SQRT2 - 1.0) ** 3 / (2.0 * math.sqrt(3.0))
    assert sigma == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("a", [SQRT2, 1.3, 1.2, 1.1])
def test_recursion_equivalent_form(a):
    base = VarianceEstimate(sigma2=1.0 / 3.0, method="resolvent")
    assert tent_sigma_recursion(a, base) == pytest.approx(
        tent_sigma_recursion_alt(a, base), abs=1e-12)


def test_recursion_rejects_base_window():
    with pytest.raises(ValueError):
        tent_sigma_recursion(1.8, VarianceEstimate(1.0, "resolvent"))


def test_recursion_vs_autocovariance_at_13():
    """The rescaled base-window variance agrees with the direct restricted
    autocovariance series at the smaller parameter."""
    a = 1.3
    base_sys = tent_system(squared_param(a))
    base = sigma2_resolvent(base_sys.observable, base_sys.transfer)
    sigma = tent_sigma_recursion(a, base)
    sys_a = tent_system(a)
    auto = sigma2_autocovariance(sys_a.observable, sys_a.map, sys_a.transfer,
                                 tent_support_cycle(a), J=48)
    assert auto.sigma2 == pytest.approx(sigma**2, rel=2e-2)


# ----------------------------------------------------------------------
# non-ergodic profiles
# ----------------------------------------------------------------------

def test_profile_three_branch_exact():
    tb = three_branch_system()
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=16)
    assert prof.components[0] == (((0.0, 0.5),), 1.0)
    assert prof.components[1] == (((0.5, 1.0),), 4.0)


def test_profile_single_component_reduces_to_sigma2():
    sys15 = tent_system(1.5)
    cycle = tent_support_cycle(1.5)
    prof = variance_profile(sys15.observable, sys15.transfer, [cycle], J=64)
    auto = sigma2_autocovariance(sys15.observable, sys15.map, sys15.transfer, cycle, J=64)
    assert prof.components[0][1] == pytest.approx(auto.sigma2, abs=1e-10)


def test_profile_zero_observable():
    tb = three_branch_system()
    zero = Observable(f=PAF.constant(0, 1, 0.0), centered_wrt="three_branch")
    prof = variance_profile(zero, tb.transfer, tb.components, J=8)
    assert all(v == 0.0 for _, v in prof.components)


def test_profile_matches_replaced_code():
    """Each component value goes through `_series_estimate`: the float
    expression, the tail gate and the clamp of the inline arithmetic it
    replaced, so every profile repr is unchanged.  Tent 1.3 and 1.1 block
    the observable (periods 2 and 4) and window it to the cycle's first
    interval."""
    tb, sys15 = three_branch_system(), tent_system(1.5)
    zero = Observable(f=PAF.constant(0, 1, 0.0), centered_wrt="three_branch")
    cases = [(tb, tb.observable, tb.components, J) for J in (2, 8, 32)]
    cases += [(sys15, sys15.observable, [tent_support_cycle(1.5)], 64), (tb, zero, tb.components, 8)]
    cases += [(s, s.observable, s.components, 32) for s in (tent_system(1.3), tent_system(1.1))]
    for system, h, comps, J in cases:
        got = variance_profile(h, system.transfer, comps, J=J)
        assert repr(got) == repr(ref.variance_profile(comps, h, system.map, system.transfer, J=J))


def _dyadic_levels(system, components, J):
    """Each component's dyadic value at levels 0..J, one call per level."""
    profiles = [variance_profile_dyadic(system.observable, system.transfer, components, J=j) for j in range(J + 1)]
    return [[prof.components[i][1] for prof in profiles] for i in range(len(components))]


def test_dyadic_profile_matches_its_own_lag_pass():
    """The dyadic profile from one `autocovariance_sequence` call per
    component has the bits of the former profile with its own pass of the
    iterates: below sqrt(2) (tent 1.3, 1.1 and 1.08, where no pinned run
    reaches), on the two three-branch components, and for random centered
    steps on tent 1.3.  Its value at each J <= 7 is the former running value
    after level J."""
    from ergclt.maps import _tent_core_interval
    sys13 = tent_system(1.3)
    core = _tent_core_interval(1.3)
    rng = np.random.default_rng(23)
    cases = [(s, s.observable) for s in (sys13, tent_system(1.1), tent_system(1.08), three_branch_system())]
    for _ in range(3):
        bp = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(core.lo, core.hi, 5)]))
        raw = PAF.step(bp, rng.normal(size=len(bp) - 1))
        mean = integrate_product([raw, sys13.density])
        cases.append((sys13, Observable(f=raw - PAF.constant(-1.0, 1.0, mean), centered_wrt="tent(a=1.3)")))
    for system, h in cases:
        want, partials = ref.variance_profile_dyadic(h, system.transfer, system.components, J=7)
        for J in range(8):
            got = variance_profile_dyadic(h, system.transfer, system.components, J=J)
            assert got.method == want.method
            assert [pairs for pairs, _ in got.components] == [pairs for pairs, _ in want.components]
            assert [v.hex() for _, v in got.components] == [row[J].hex() for row in partials]
        assert [v.hex() for _, v in got.components] == [v.hex() for _, v in want.components]


def test_dyadic_profile_three_branch_exact():
    tb = three_branch_system()
    prof = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=10)
    vals = [v for _, v in prof.components]
    assert vals == pytest.approx([1.0, 4.0], abs=1e-12)
    # all cross terms vanish, so every level value equals the base value
    for levels, expect in zip(_dyadic_levels(tb, tb.components, 12), (1.0, 4.0)):
        assert all(p == pytest.approx(expect, abs=1e-12) for p in levels)


def test_dyadic_profile_tent2_constant_third():
    sys2 = tent_system(2.0)
    prof = variance_profile_dyadic(sys2.observable, sys2.transfer, sys2.components, J=10)
    assert prof.components[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_dyadic_profile_converges_to_resolvent():
    a = 1.5
    system = tent_system(a)
    res = sigma2_resolvent(system.observable, system.transfer)
    span = tent_support_cycle(a).intervals[0]
    partials = _dyadic_levels(system, [SupportCycle(intervals=(span,), period=1)], 12)[0]
    # levels are Cauchy: increments shrink roughly geometrically (ratio ~1/2)
    incs = [abs(b - a_) for a_, b in zip(partials, partials[1:])]
    assert incs[-1] <= 0.3 * incs[-4]
    # the remaining truncation error is on the order of the last increment
    tol = 3 * incs[-1] + 2 * res.tail_bound + 1e-9
    assert partials[-1] == pytest.approx(res.sigma2, abs=tol)


def test_profile_weights_for_mixture():
    tb = three_branch_system()
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=8)
    mix = prof.mixture([0.5, 0.5])
    assert mix == [(0.5, 1.0), (0.5, 4.0)]


def test_autocov_zero_observable():
    sys2 = tent_system(2.0)
    zero = Observable(f=PAF.constant(-1, 1, 0.0), centered_wrt="any")
    est = sigma2_autocovariance(zero, sys2.map, sys2.transfer, tent_support_cycle(2.0))
    assert est.sigma2 == 0.0


def test_tail_bound_shrinks_with_truncation():
    sys17 = tent_system(1.7)
    tails = [sigma2_resolvent(sys17.observable, sys17.transfer, J=J).tail_bound
             for J in (16, 32, 64)]
    assert tails[0] >= tails[1] >= tails[2] >= 0.0


def test_recursion_scale_equivariance():
    base = VarianceEstimate(sigma2=0.25, method="resolvent")
    scaled = VarianceEstimate(sigma2=4.0 * 0.25, method="resolvent")
    assert tent_sigma_recursion(1.3, scaled) == pytest.approx(
        2.0 * tent_sigma_recursion(1.3, base), abs=1e-15)


def test_variance_estimate_rejects_negative():
    with pytest.raises(ValueError):
        VarianceEstimate(sigma2=-0.1, method="resolvent")


def test_tail_fits_match_polyfit():
    """The closed-form least-squares slope of the tail fit matches
    np.polyfit to 1e-12 relative on noisy geometric sequences, and the 0.99
    "not decaying" gate decides as the polyfit rate would, on both sides."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(4, 200))
        seq = rng.uniform(0.1, 10.0) * rng.uniform(0.05, 0.98) ** np.arange(n) * np.exp(rng.normal(0, 0.01, n))
        x = np.arange(n, dtype=float)
        assert _fit_slope(x, np.log(seq)) == pytest.approx(np.polyfit(x, np.log(seq), 1)[0], rel=1e-12)
    for theta in (0.98, 0.9899, 0.98999, 0.99001, 0.9901, 0.999):
        terms = np.concatenate(([1.0], 0.5 * (-theta) ** np.arange(1, 65)))
        tail = np.abs(terms[1:])[32:]
        decays = math.exp(np.polyfit(np.arange(32.0), np.log(tail), 1)[0]) < 0.99
        assert decays == (theta < 0.99)
        if decays:
            assert _geometric_tail(terms, None) > 0.0
        else:
            with pytest.raises(DivergenceError, match="not decaying"):
                _geometric_tail(terms, None)


def test_profile_rejects_negative_variance(monkeypatch):
    """A component lag sum below -1e-8 raises, as in the sigma2 routes; it is
    not clamped to 0."""
    tb = three_branch_system()
    lags = np.array([1.0, -0.6, 0.0])
    monkeypatch.setattr(clt, "autocovariance_sequence", lambda *args, **kwargs: (lags, 2))
    with pytest.raises(DivergenceError, match="negative"):
        variance_profile(tb.observable, tb.transfer, tb.components, J=2)


def test_divergence_error_carries_terms():
    sys13 = tent_system(1.3)
    with pytest.raises(DivergenceError) as exc:
        sigma2_resolvent(sys13.observable, sys13.transfer, J=32)
    assert len(exc.value.terms) == 33  # lags 0..32


def test_profile_method_strings():
    tb = three_branch_system()
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=4)
    assert prof.to_dict()["method"] == "autocov"
    dyad = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=4)
    assert dyad.to_dict()["method"] == "dyadic"

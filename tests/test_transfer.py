"""Transfer-operator actions: exactness, duality, contraction, and the
summability diagnostics of `clt.condition_report`."""

import gc
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergclt
import oracle
import references as ref
from ergclt import piecewise, transfer
from ergclt.clt import Observable, condition_report, tent_system, three_branch_system
from ergclt.densities import tent_density
from ergclt.maps import Interval, PiecewiseLinearMap, tent_map, three_branch_map
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import PieceBudgetExceeded, integrate_product, pw_sum
from ergclt.simulate import dyadic_block_norms
from ergclt.transfer import DEAD_ITERATE_REL, NormalizedTransfer, frobenius_perron, koopman

from strategies import STEEP_MAP, affine_functions, maps_and_functions_through, plan_cases, steep_sliver_grid

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


def test_function_shorter_than_the_domain_reads_zero_outside_its_span():
    """f on [0.2, 0.9] under tent a = 1.5: the push and the composition read f
    as 0 off its span, as they read its extension to [-1, 1] by zero pieces."""
    t = tent_map(1.5)
    f = PAF([0.2, 0.5, 0.9], [1.0, 2.0], [3.0, -4.0])
    whole = PAF([-1.0, 0.2, 0.5, 0.9, 1.0], [0.0, 1.0, 2.0, 0.0], [0.0, 3.0, -4.0, 0.0])
    xs = np.random.default_rng(15).uniform(-1.0, 1.0, 500)
    assert f.integral() == pytest.approx(-0.035, abs=1e-15)
    assert frobenius_perron(t, f).integral() == pytest.approx(-0.035, abs=1e-14)
    assert np.abs(frobenius_perron(t, f)(xs) - frobenius_perron(t, whole)(xs)).max() <= 1e-14
    assert koopman(t, f)(-0.9) == 0.0
    assert np.abs(koopman(t, f)(xs) - koopman(t, whole)(xs)).max() <= 1e-14


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
    g = tent_density(1.5)
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
    tb = three_branch_system().transfer
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
    tb = three_branch_system().transfer
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
    tb = three_branch_system().transfer
    f = random_step(rng, 0.0, 1.0)
    uf = koopman(three_branch_map(), f)
    assert uf.norm_l1(tb.gstar) == pytest.approx(f.norm_l1(tb.gstar), abs=1e-10)
    c = PAF.constant(0, 1, 3.3)
    assert (koopman(three_branch_map(), c) - c).sup_norm() <= 1e-14


def test_duality_on_step_functions():
    """∫ (P_T f) g dν = ∫ f (g o T) dν."""
    rng = np.random.default_rng(5)
    tb = three_branch_system().transfer
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
    g = tent_density(1.7)
    nt = NormalizedTransfer(tent_map(1.7), g)
    for _ in range(10):
        f = random_step(rng)
        assert nt(f).norm_l1(g) <= f.norm_l1(g) + 1e-10
    # L2 contraction needs an exactly invariant density
    tb = three_branch_system().transfer
    for _ in range(10):
        f = random_step(rng, 0.0, 1.0)
        pf = tb(f)
        assert pf.norm_l2(tb.gstar) <= f.norm_l2(tb.gstar) + 1e-10
        assert pf.norm_l1(tb.gstar) <= f.norm_l1(tb.gstar) + 1e-10


def test_composition_law():
    """Applying the operator m then n times equals m+n applications."""
    tb = three_branch_system().transfer
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
    rep = condition_report(Observable(PAF.affine(-1, 1, 1, 0), "tent(a=2.0)"), nt, K=64)
    target = 1.0 / math.sqrt(3.0)
    assert max(abs(v - target) for v in rep.V) <= 1e-12


def test_condition_report_three_branch():
    tb = three_branch_system().transfer
    rep = condition_report(Observable(FOUR_STEP, "three_branch"), tb, K=32)
    target = math.sqrt(2.5)
    assert max(abs(v - target) for v in rep.V) <= 1e-12


def test_condition_report_subadditivity_and_monotone_partials():
    g = tent_density(1.5)
    nt = NormalizedTransfer(tent_map(1.5), g)
    m = integrate_product([PAF.affine(-1, 1, 1, 0), g])
    h = Observable(PAF.affine(-1, 1, 1.0, -m), "tent(a=1.5)")
    rep = condition_report(h, nt, K=24)
    V = rep.V
    for n in range(1, len(V) + 1):
        for k in range(1, len(V) + 1 - n):
            assert V[n + k - 1] <= V[n - 1] + V[k - 1] + 1e-9
    assert all(b >= a - 1e-15 for a, b in zip(rep.series_partial, rep.series_partial[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(rep.dyadic_partial, rep.dyadic_partial[1:]))


def test_condition_report_requires_centering():
    tb = three_branch_system().transfer
    with pytest.raises(ValueError, match="not centered against three_branch"):
        condition_report(Observable(PAF.constant(0, 1, 1.0), "three_branch"), tb, K=8)


def test_condition_report_requires_min_horizon():
    tb = three_branch_system().transfer
    with pytest.raises(ValueError):
        condition_report(Observable(FOUR_STEP, "three_branch"), tb, K=4)


def test_condition_report_matches_replaced_code():
    """V and both partial-sum series keep their bits on the six reports of
    the `condition` criterion, now that the report computes nothing else."""
    sys2, tb, sys15 = tent_system(2.0), three_branch_system(), tent_system(1.5)
    for system, K in ((sys2, 64), (sys2, 256), (sys2, 1024), (sys2, 64), (tb, 64), (sys15, 24)):
        rep = condition_report(system.observable, system.transfer, K=K)
        old = ref.condition_report(system.observable.f, system.transfer, K=K)
        for got, want in zip((rep.V, rep.series_partial, rep.dyadic_partial), old[:3]):
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def test_sandwich_ratio_stable_across_horizons():
    tb = three_branch_system().transfer
    ratios = []
    for K in (64, 256, 1024):
        rep = condition_report(Observable(FOUR_STEP, "three_branch"), tb, K=K)
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


def reference_frobenius_perron(map_, f):
    """The push as a chain of algebra operations: compose with each inverse
    branch, scale by |slope|^-1, extend to the domain, sum, prune."""
    lo, hi = map_.domain.lo, map_.domain.hi
    parts = []
    for (piece, s, c) in map_.branches:
        a_img, b_img = s * piece.lo + c, s * piece.hi + c
        img_lo, img_hi = min(a_img, b_img), max(a_img, b_img)
        if img_hi - img_lo < 1e-15:
            continue
        part = ref.compose_affine(f, 1.0 / s, -c / s, img_lo, img_hi) * (1.0 / abs(s))
        parts.append(ref.embed(part, lo, hi))
    return pw_sum(parts).pruned()


def reference_norm_l1(f):
    return integrate_product([f.abs()])


def assert_same_function(got, expect):
    for a, b in ((got.breakpoints, expect.breakpoints), (got.slopes, expect.slopes),
                 (got.intercepts, expect.intercepts)):
        assert a.tobytes() == b.tobytes()


def _chain_start(map_, kind, seed=19):
    """A step or affine function on the map's domain with 11 random cells."""
    rng = np.random.default_rng(seed)
    lo, hi = map_.domain.lo, map_.domain.hi
    bp = np.concatenate(([lo], np.sort(rng.uniform(lo, hi, 10)), [hi]))
    slopes = rng.normal(size=11) if kind == "affine" else np.zeros(11)
    return PAF(bp, slopes, rng.normal(size=11))


PLAN_MAPS = {"tent2": lambda: tent_map(2.0), "tent1.8": lambda: tent_map(1.8), "tent1.3": lambda: tent_map(1.3),
             "tent1.1": lambda: tent_map(1.1), "tent1.08": lambda: tent_map(1.08), "three": three_branch_map}


@pytest.mark.parametrize("kind", ["step", "affine"])
@pytest.mark.parametrize("name", sorted(PLAN_MAPS))
def test_planned_push_matches_the_unplanned_push(name, kind):
    """300 chained pushes (windows m = 0..3 and the three-branch map): the
    plans, built on misses and reused on hits once the grid repeats, give the
    bits of the push that recomputes its geometry every time."""
    map_ = PLAN_MAPS[name]()
    f = g = _chain_start(map_, kind)
    for _ in range(300):
        f, g = frobenius_perron(map_, f), ref.frobenius_perron(map_, g)
        assert_same_function(f, g)
    assert len(map_.push_plans) <= transfer.PUSH_PLANS_KEPT


@pytest.mark.parametrize("kind", ["step", "affine"])
@pytest.mark.parametrize("name", sorted(PLAN_MAPS))
def test_koopman_matches_the_concatenated_composition(name, kind):
    """Up to 300 chained compositions, stopping once pieces pass 20,000:
    the composition on its branch plan gives the bits of each branch
    composed alone, the grids concatenated and the parts placed."""
    map_ = PLAN_MAPS[name]()
    f = _chain_start(map_, kind)
    for _ in range(300):
        g = koopman(map_, f)
        assert_same_function(g, ref.compose_branches(f, map_).pruned())
        f = g
        if f.num_pieces > 20_000:
            break


def test_near_tiling_pieces_compose_as_concatenated():
    """Pieces that miss by 5e-13 or overlap by 1e-15 start exactly where the
    piece before them ends, so the sorted union of the branch grids is their
    concatenation.  The middle branch maps 0.6, 1e-15 inside its piece's
    end, onto f's end 0, so the output grid has a near twin there: the
    composition is within the oracle's bound of f o T, and gives f(T(x))."""
    map_ = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 0.3), 3.0, 0.0), ((0.3 + 5e-13, 0.6 + 1e-15), -3.0, 1.8),
                                                   ((0.6, 1.0), 2.5, -1.5)])
    for i in (1, 2):
        assert map_.branches[i][0].lo == map_.branches[i - 1][0].hi
    f = _chain_start(map_, "affine")
    assert not ref.one_pass_plan_ran(map_, f.breakpoints, push=False)
    g = koopman(map_, f)
    assert oracle.l1_distance(g, oracle.compose(map_, oracle.exact(f))) <= oracle.bound(1, f.sup_norm(), 1.0, prunes=1)
    x = np.random.default_rng(21).uniform(0.0, 1.0, 1000)
    assert np.abs(g(x) - f(map_(x))).max() <= 1e-14


def test_planned_push_alternating_between_two_maps():
    """Two maps pushing the same grids keep separate plans."""
    maps = [tent_map(1.3), tent_map(1.8)]
    f = g = _chain_start(maps[0], "affine")
    for i in range(300):
        f, g = frobenius_perron(maps[i % 2], f), ref.frobenius_perron(maps[i % 2], g)
        assert_same_function(f, g)


def test_rebuilt_map_takes_no_stale_plan():
    """A map freed and rebuilt at another parameter, perhaps at the same id,
    starts with no plans, so the grid its predecessor pushed is planned anew."""
    f = _chain_start(tent_map(1.3), "step")
    for _ in range(50):
        f = frobenius_perron(tent_map(1.3), f)
    old = tent_map(1.3)
    frobenius_perron(old, f)
    del old
    gc.collect()
    rebuilt = tent_map(1.8)
    assert rebuilt.push_plans == {}
    assert_same_function(frobenius_perron(rebuilt, f), ref.frobenius_perron(tent_map(1.8), f))


def _count_plans(monkeypatch):
    built = []
    plan = transfer._branch_plan
    monkeypatch.setattr(transfer, "_branch_plan", lambda *args, **kwargs: built.append(1) or plan(*args, **kwargs))
    return built


def test_plan_is_reused_on_a_repeated_grid(monkeypatch):
    """A second push of the same grid (other values) takes the stored plan,
    whose output grid is read-only because both results may share it."""
    built = _count_plans(monkeypatch)
    map_ = tent_map(1.3)
    f = _chain_start(map_, "affine")
    frobenius_perron(map_, f)
    other = PAF(f.breakpoints.copy(), -2.0 * f.slopes, f.intercepts + 1.0)
    assert_same_function(frobenius_perron(map_, other), ref.frobenius_perron(map_, other))
    assert len(built) == 1
    assert not next(iter(map_.push_plans.values()))[0].flags.writeable


@pytest.mark.parametrize("a", [2.0, 1.8, 1.3])
def test_iterate_grids_repeat(a, monkeypatch):
    """Past a transient (46, 57 and 122 pushes here) the iterates of a
    weighted step observable keep one grid, so most of 300 pushes are hits.
    Deeper windows take longer: at a = 1.1 and 1.08 no grid repeats within
    300 pushes."""
    built = _count_plans(monkeypatch)
    sys_ = tent_system(a)
    v = sys_.transfer.weighted(_chain_start(sys_.map, "step"))
    for _ in range(300):
        v = sys_.transfer.push(v)
    assert len(built) < 200


def test_plan_store_stays_bounded():
    """1,000 distinct grids leave at most PUSH_PLANS_KEPT plans, the newest."""
    map_ = tent_map(1.3)
    for i in range(1000):
        f = _chain_start(map_, "step", seed=i)
        frobenius_perron(map_, f)
        assert len(map_.push_plans) <= transfer.PUSH_PLANS_KEPT
    assert f.breakpoints.tobytes() in map_.push_plans


def test_near_twins_merge_in_the_plan():
    """Breakpoints 3e-15 apart, which the merge joins, leave one point of
    each output pair: the push and the composition have no cell narrower
    than the merge tolerance and are within the oracle's bound.  The same
    function without the twin keeps the reference's bits."""
    map_ = tent_map(1.3)
    plain = PAF([-1.0, -0.2, 0.4, 1.0], [1.0, -2.0, 0.5], [0.3, 1.0, -1.0])
    twin = PAF([-1.0, -0.2, -0.2 + 3e-15, 0.4, 1.0], [1.0, 3.0, -2.0, 0.5], [0.3, -1.0, 1.0, -1.0])
    assert_same_function(frobenius_perron(map_, plain), reference_frobenius_perron(map_, plain))
    assert_same_function(koopman(map_, plain), ref.compose_branches(plain, map_).pruned())
    for (got, want) in ((frobenius_perron(map_, twin), oracle.push), (koopman(map_, twin), oracle.compose)):
        assert np.diff(got.breakpoints).min() > piecewise._BP_EPS
        assert oracle.l1_distance(got, want(map_, oracle.exact(twin))) <= oracle.bound(1, twin.sup_norm(), 2.0, prunes=1)


@pytest.mark.parametrize("b", [0.9975, 0.998, 0.999])
def test_steep_branch_sliver_within_the_oracle_bound(b):
    """Under STEEP_MAP's slope-256 branch, b's preimage x and a preimage
    under the slope-2 branch 1.5e-14 below it bound an output cell, wider
    than the merge tolerance.  Read at that cell's midpoint, the steep branch
    rounds to b itself and takes f's cell right of b, though the cell maps
    left of b: the push misreads a sliver 1.4988e-14 wide, at an L1 cost of
    its width times f's jump at b over 256, far inside the oracle's bound."""
    bp = steep_sliver_grid(b)
    grid, terms = transfer._branch_plan(STEEP_MAP, bp, push=True)
    i = int(grid.searchsorted((b - 255 / 256) * 256))
    sliver = grid[i] - grid[i - 1]
    assert sliver == 1.4988010832439613e-14
    start, _, src, *_ = terms[2]
    assert src[i - 1 - start] == 2 and src[i - 2 - start] == 1
    f = PAF(bp, [1.0, -2.0, 3.0], [0.5, 1.0, -4.0])
    err = oracle.l1_distance(frobenius_perron(STEEP_MAP, f), oracle.push(STEEP_MAP, oracle.exact(f)))
    jump = abs(f.slopes[1] * b + f.intercepts[1] - (f.slopes[2] * b + f.intercepts[2]))
    assert err == pytest.approx(sliver * jump / 256, rel=1e-9)
    assert err <= oracle.bound(1, f.sup_norm(), 1.0, prunes=1)


def assert_matches_reference_or_oracle(map_, f, push):
    """The push (or composition) of f has the bits of the per-branch
    reference where its plan was built in one pass before the merge joined
    the plan (`references.one_pass_plan_ran`), and is within the oracle's
    bound elsewhere: near twins and STEEP_MAP's steep branch."""
    if push:
        got, want = frobenius_perron(map_, f), reference_frobenius_perron
    else:
        got, want = koopman(map_, f), lambda map_, f: ref.compose_branches(f, map_).pruned()
    if ref.one_pass_plan_ran(map_, f.breakpoints, push):
        assert_same_function(got, want(map_, f))
    else:
        exact = (oracle.push if push else oracle.compose)(map_, oracle.exact(f))
        assert oracle.l1_distance(got, exact) <= oracle.bound(1, f.sup_norm(), oracle.width(map_), prunes=1)


@settings(max_examples=120)
@given(plan_cases(), st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8), st.booleans())
def test_property_one_pass_plan_matches_per_branch_plan(case, values, push):
    """The push and the composition on the grids of iterates (pushed 0-2
    times), some under STEEP_MAP, whose steep branch widened the old gap
    past the merge tolerance."""
    map_, bp = case
    n = len(bp) - 1
    assert_matches_reference_or_oracle(map_, PAF(bp, np.resize(values[::-1], n), np.resize(values, n)), push)


@given(maps_and_functions_through())
def test_property_push_matches_reference_chain(case):
    assert_matches_reference_or_oracle(*case, push=True)


def test_push_over_piece_budget_raises(monkeypatch):
    f = random_step(np.random.default_rng(8), pieces=40)
    assert frobenius_perron(tent_map(1.5), f).num_pieces > 20
    monkeypatch.setattr(piecewise, "MAX_PIECES", 20)
    with pytest.raises(PieceBudgetExceeded):
        frobenius_perron(tent_map(1.5), f)


def assert_iterates_match_plain_loop(nt, v, step, max_lag=8):
    """nt.iterates(v, step) yields the bits of the plain loop over the
    reference chain (push, prune, L1 of |v|, dead test) and stops at the
    same lag; returns the live lag count."""
    got = list(itertools.islice(nt.iterates(v, step), max_lag))
    dead = DEAD_ITERATE_REL * reference_norm_l1(v)
    expect = []
    for _ in range(max_lag):
        for _ in range(step):
            v = reference_frobenius_perron(nt.map, v)
        v = v.pruned()
        l1 = reference_norm_l1(v)
        if l1 <= dead:
            break
        expect.append((v, l1))
    assert len(got) == len(expect)
    for (w, l1), (e, e_l1) in zip(got, expect):
        assert_same_function(w, e)
        assert float(l1).hex() == float(e_l1).hex()
    return len(got)


@given(maps_and_functions_through(), st.sampled_from([1, 2]))
def test_property_iterates_match_plain_loop(case, step):
    """Functions whose grids hold branch edges, their images and near twins:
    the plain loop's bits where every push of the loop had a one-pass plan
    before the merge joined the plan, else the oracle's bound."""
    map_, f = case
    if plain_loop_is_one_pass(map_, f, step):
        nt = NormalizedTransfer(map_, PAF.constant(map_.domain.lo, map_.domain.hi, 1.0))
        assert_iterates_match_plain_loop(nt, f, step)
    else:
        oracle.assert_iterates_within_bound(map_, f, step)


def plain_loop_is_one_pass(map_, v, step, max_lag=8):
    """Whether every push of the plain loop of `assert_iterates_match_plain_loop`
    had a plan built in one pass before the merge joined the plan."""
    dead = DEAD_ITERATE_REL * reference_norm_l1(v)
    for _ in range(max_lag):
        for _ in range(step):
            if not ref.one_pass_plan_ran(map_, v.breakpoints, push=True):
                return False
            v = reference_frobenius_perron(map_, v)
        v = v.pruned()
        if reference_norm_l1(v) <= dead:
            break
    return True


DYADIC_VALUES = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.floats(-3.0, 3.0), min_size=2**k, max_size=2**k))


@given(TENT_A, st.integers(0, 2**16), st.sampled_from([1, 2]))
def test_property_iterates_match_plain_loop_tent(a, seed, step):
    """Centered steps, whose iterates decay and cross small norm ratios."""
    g = tent_density(a)
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
    nt = three_branch_system().transfer
    f = PAF.step(np.linspace(0.0, 1.0, len(vals) + 1), vals)
    live = assert_iterates_match_plain_loop(nt, nt.weighted(f), step)
    if centered:
        assert live < 8


def _count_applies(monkeypatch):
    """A list that gets, per `_apply`, whether it was given slopes."""
    with_slopes = []
    apply = transfer._apply
    monkeypatch.setattr(transfer, "_apply", lambda plan, slopes, *args, **kwargs:
                        with_slopes.append(slopes is not None) or apply(plan, slopes, *args, **kwargs))
    return with_slopes


@pytest.mark.parametrize("step", [1, 2])
def test_step_iterates_skip_the_slope_arithmetic(monkeypatch, step):
    """A centered step on tent 1.3 is pushed as a step for 64 lags: no
    push is given slopes, and the iterates keep the plain loop's bits."""
    g = tent_density(1.3)
    f = random_step(np.random.default_rng(3))
    nt = NormalizedTransfer(tent_map(1.3), g)
    v = nt.weighted(f - PAF.constant(-1.0, 1.0, integrate_product([f, g])))
    with_slopes = _count_applies(monkeypatch)
    assert assert_iterates_match_plain_loop(nt, v, step, max_lag=64) == 64
    assert len(with_slopes) == 64 * step and not any(with_slopes)


@pytest.mark.parametrize("step", [1, 2])
def test_step_iterates_of_negative_zero_slopes(monkeypatch, step):
    """`koopman` of a step under the decreasing tent branch has slopes -0.0;
    such a start is still a step, with the plain loop's bits."""
    map_ = tent_map(1.3)
    nt = NormalizedTransfer(map_, tent_density(1.3))
    v = nt.weighted(koopman(map_, PAF.step([-1.0, -0.5, 0.1, 0.6, 1.0], [1.0, -2.0, 0.5, 3.0])))
    assert np.signbit(v.slopes).any()
    with_slopes = _count_applies(monkeypatch)
    assert assert_iterates_match_plain_loop(nt, v, step) == 8
    assert with_slopes and not any(with_slopes)


@pytest.mark.parametrize("step", [1, 2])
def test_step_iterates_of_a_near_twin_grid(monkeypatch, step):
    """Breakpoints 3e-15 apart (the near twins of `strategies.breakpoints`)
    fail `norm_l1`'s width check, so the start's norm takes the
    `integrate_product` branch; the step iterates keep the plain loop's bits."""
    nt = NormalizedTransfer(tent_map(1.3), tent_density(1.3))
    with_slopes = _count_applies(monkeypatch)
    integrals = []
    integrate = piecewise.integrate_product
    monkeypatch.setattr(piecewise, "integrate_product", lambda *args: integrals.append(1) or integrate(*args))
    v = PAF.step([-1.0, -0.2, -0.2 + 3e-15, 0.4, 1.0], [0.3, -1.0, 1.0, -1.0])
    v.norm_l1()
    assert integrals
    assert assert_iterates_match_plain_loop(nt, v, step) == 8
    assert with_slopes and not any(with_slopes)


@settings(max_examples=120)
@example((tent_map(1.3), np.array([-1.0, -0.2, -0.2 + 3e-15, 0.4, 1.0])), [0.3, 0.3, -1.0, 1.0], True)
@given(plan_cases(), st.lists(st.sampled_from([0.0, 0.3, -1.0]) | st.floats(-5.0, 5.0), min_size=64, max_size=64),
       st.booleans())
def test_property_pushed_and_pruned_grids_pass_the_width_check(case, values, step):
    """Every grid that a push and a prune leave, and every grid that a
    composition leaves, has cells wider than `_BP_EPS` times its scale, also
    from grids with near twins, which the plan merges.
    `NormalizedTransfer.iterates` reads a step iterate's L1 norm as `norm_l1`
    does past this check, without making it."""
    map_, bp = case
    n = len(bp) - 1
    ic = np.resize(np.array(values), n)
    sl = None if step else np.resize(np.array(values[::-1]), n)
    pushed, _, _ = piecewise._pruned(*transfer._push(map_, bp, sl, ic))
    composed = koopman(map_, PAF(bp, np.zeros(n) if sl is None else sl, ic)).breakpoints
    for grid in (pushed, composed):
        assert (grid[1:] - grid[:-1]).min() > piecewise._BP_EPS * max(1.0, abs(grid[0]), abs(grid[-1]))


def test_density_with_a_slope_is_not_a_step():
    """A slope of 1e-16 makes a density affine: the transfer and the
    reciprocal reject it instead of dropping the slope."""
    g = PAF([-1.0, 0.0, 1.0], [0.0, 1e-16], [0.5, 0.5])
    assert not g.is_step()
    with pytest.raises(ValueError, match="step function"):
        NormalizedTransfer(tent_map(1.3), g)
    with pytest.raises(ValueError, match="step function"):
        g.reciprocal_step()


def assert_partial_sums_match_replaced_code(nt, h, q):
    """`dyadic_block_norms` at q and `condition_report` at K = 8, 24 and 64
    keep the bits of their own passes in `tests/references.py`."""
    hexes = lambda xs: [float(x).hex() for x in xs]
    assert hexes(dyadic_block_norms(h, nt, q)) == hexes(ref.dyadic_block_norms(h, nt, q))
    for K in (8, 24, 64):
        rep = condition_report(h, nt, K=K)
        old = ref.condition_report(h.f, nt, K=K)
        assert [hexes(x) for x in (rep.V, rep.series_partial, rep.dyadic_partial)] == [hexes(x) for x in old[:3]]


@given(TENT_A, st.integers(0, 2**16), st.integers(0, 10))
def test_property_partial_sums_match_replaced_code_tent(a, seed, q):
    """Random centered steps on tent maps, whose iterates decay but live."""
    g = tent_density(a)
    f = random_step(np.random.default_rng(seed))
    h = Observable(f - PAF.constant(-1.0, 1.0, integrate_product([f, g])), f"tent(a={a})")
    assert_partial_sums_match_replaced_code(NormalizedTransfer(tent_map(a), g), h, q)


@given(DYADIC_VALUES, st.booleans(), st.integers(0, 10))
def test_property_partial_sums_match_replaced_code_three_branch(values, per_half, q):
    """Dyadic steps centered on the whole square or on each invariant half.
    Centered on each half, their iterates die within k pushes, inside a
    dyadic block or at its end, and the sums stay fixed from there."""
    vals = np.array(values)
    half = len(vals) // 2
    if per_half:
        vals[:half] -= vals[:half].mean()
        vals[half:] -= vals[half:].mean()
    else:
        vals -= vals.mean()
    h = Observable(PAF.step(np.linspace(0.0, 1.0, len(vals) + 1), vals), "three_branch")
    assert_partial_sums_match_replaced_code(three_branch_system().transfer, h, q)


# ----------------------------------------------------------------------
# library values pinned to the last bit
# ----------------------------------------------------------------------

PINNED_PROBE = """
import hashlib
import json
import pathlib

import numpy as np

from ergclt import Observable, integrate_product, sigma2_autocovariance, tent_system, three_branch_system
from ergclt import PiecewiseAffineFunction as PAF
from ergclt.cli import main
from ergclt.maps import _tent_core_interval
from ergclt.simulate import dyadic_block_norms

tb = three_branch_system()
out = {"three_branch": dyadic_block_norms(tb.observable, tb.transfer, 10)}
sys13 = tent_system(1.3)
core = _tent_core_interval(1.3)
rng = np.random.default_rng(2006)
for i in range(2):
    nb = int(rng.integers(3, 9))
    bp = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(core.lo, core.hi, nb)]))
    raw = PAF.step(bp, rng.normal(size=len(bp) - 1))
    h = Observable(f=raw - PAF.constant(-1.0, 1.0, integrate_product([raw, sys13.density])),
                   centered_wrt="tent(a=1.3)")
    out[f"random_{i}"] = dyadic_block_norms(h, sys13.transfer, 10)
coord = tent_system(1.3)
est = sigma2_autocovariance(coord.observable, coord.map, coord.transfer, coord.components[0])
out["autocov_1.3"] = [est.sigma2, est.tail_bound]
out = {k: [float(x).hex() for x in v] for k, v in out.items()}
assert main(["variance", "--map", "tent", "--a", "1.8", "--out", "run"]) == 0
out["variance_tent_1.8"] = [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(pathlib.Path().glob("run*"))]
print(json.dumps(out))
"""

PINNED_HEX = {
    "three_branch": ["0x0.0p+0"] * 10,
    "random_0": ["0x1.630e4ad3ce980p-2", "0x1.c545ab2e94ca0p-2", "0x1.e3e4eac7ab120p-2", "0x1.f2675490b7eb0p-2",
                 "0x1.d64bc1f861c72p-2", "0x1.cd0ff1420b075p-2", "0x1.cdd7c6a9357ebp-2", "0x1.cdd8af4341f05p-2",
                 "0x1.cdd8af4454072p-2", "0x1.cdd8af4454074p-2"],
    "random_1": ["0x1.7c3b70272b5f2p-1", "0x1.d543043044211p-1", "0x1.7df4fd5ced3e2p-1", "0x1.88996c7ad97f2p-1",
                 "0x1.896180b7f8945p-1", "0x1.8b4bca9110b8cp-1", "0x1.8b3f9e94a9783p-1", "0x1.8b3fa0290677dp-1",
                 "0x1.8b3fa02920e8fp-1", "0x1.8b3fa02920e89p-1"],
    "autocov_1.3": ["0x1.ac63eac9ac5a0p-18", "0x1.83a3d87d5cc29p-45"],
    # sha256 of the run.json that `variance --map tent --a 1.8` writes
    "variance_tent_1.8": ["b1d565c6229677424cd006e57fdd2d84c111f955002bcf4ff4f26c41a5c512d8"],
}


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_library_values_pinned(blas_threads, tmp_path):
    """`maximal`-style block norms (q = 10: the three-branch observable and two
    random tent 1.3 steps) and the tent 1.3 autocov variance, to
    the last bit, plus the sha256 of the files `variance --map tent --a 1.8`
    writes.  No CLI output covers the first two.  The probe runs in a fresh
    interpreter with the BLAS thread count set before numpy loads; the bits
    must not depend on it, so no reduction may go through BLAS, whose `ddot`
    sums above ~10k cells in a thread-count dependent order."""
    src = str(pathlib.Path(ergclt.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", PINNED_PROBE], env=env, capture_output=True, text=True,
                         check=True, cwd=tmp_path)
    assert json.loads(run.stdout) == PINNED_HEX

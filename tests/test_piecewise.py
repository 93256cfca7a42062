"""Exactness checks of the piecewise-affine algebra against brute-force
Riemann sums and hand-computed values, and byte-for-byte checks of its
coefficient lookup against a reference midpoint search."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
import references as ref
from ergclt.maps import Interval, PiecewiseLinearMap
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import _dedupe_breakpoints, _dot, _sorted_union, integrate_product, merge_grids, pw_sum
from ergclt.transfer import koopman

from strategies import maps_and_functions_through, partial_functions, spans


def random_paf(rng, lo=-1.0, hi=1.0, pieces=6, step=False):
    inner = np.sort(rng.uniform(lo, hi, pieces - 1))
    bp = np.concatenate([[lo], inner, [hi]])
    slopes = np.zeros(pieces) if step else rng.normal(size=pieces)
    intercepts = rng.normal(size=pieces)
    return PAF(bp, slopes, intercepts)


def riemann(f, lo, hi, n=200001):
    x = np.linspace(lo, hi, n)
    mids = 0.5 * (x[:-1] + x[1:])
    return float(np.sum(f(mids)) * (hi - lo) / (n - 1))


def test_evaluation_conventions():
    f = PAF.step([0.0, 0.5, 1.0], [1.0, 2.0])
    assert f(0.25) == 1.0
    assert f(0.5) == 2.0  # half-open cells, value from the right
    assert f(1.0) == 2.0  # last cell closed
    assert f(-0.1) == 0.0 and f(1.1) == 0.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        PAF([0.0, 0.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        PAF([0.0, 1.0], [1.0, 2.0], [0.0, 0.0])


@pytest.mark.parametrize("seed", range(5))
def test_integral_matches_riemann(seed):
    rng = np.random.default_rng(seed)
    f = random_paf(rng)
    # midpoint-rule oracle error is O(h) at each jump, so ~1e-5 here
    assert f.integral() == pytest.approx(riemann(f, -1, 1), abs=1e-4)


@pytest.mark.parametrize("nfactors", [2, 3])
def test_product_integral_matches_riemann(nfactors):
    rng = np.random.default_rng(nfactors)
    fns = [random_paf(rng) for _ in range(nfactors)]

    def prod(x):
        out = np.ones_like(x)
        for f in fns:
            out = out * f(x)
        return out

    class Prod:
        __call__ = staticmethod(prod)

    exact = integrate_product(fns)
    approx = riemann(Prod(), -1, 1, 400001)
    assert exact == pytest.approx(approx, abs=1e-4)


def test_partial_range_integration():
    f = PAF.affine(0.0, 2.0, 1.0, 0.0)  # f(x) = x
    assert integrate_product([f], 0.5, 1.5) == pytest.approx(1.0, abs=1e-14)
    assert integrate_product([f, f], 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_sum_and_scalar_ops():
    rng = np.random.default_rng(3)
    f, g = random_paf(rng), random_paf(rng, pieces=4)
    x = rng.uniform(-1, 1, 50)
    np.testing.assert_allclose((f + g)(x), f(x) + g(x), atol=1e-12)
    np.testing.assert_allclose((f - g)(x), f(x) - g(x), atol=1e-12)
    np.testing.assert_allclose((2.5 * f)(x), 2.5 * f(x), atol=1e-12)
    np.testing.assert_allclose(pw_sum([f, g, -f])(x), g(x), atol=1e-12)


def test_compose_affine_exact():
    """The composition with a one-branch map on [-1, 1], increasing or
    decreasing, with f on the whole domain or on part of it (0 off it)."""
    rng = np.random.default_rng(4)
    for f in (random_paf(rng), random_paf(rng, -0.4, 0.6)):
        for s, c in [(0.5, 0.2), (-0.9, 0.1), (0.95, -0.05)]:
            g = koopman(PiecewiseLinearMap(Interval(-1.0, 1.0), [((-1.0, 1.0), s, c)]), f)
            x = rng.uniform(-1.0, 1.0, 200)
            np.testing.assert_allclose(g(x), f(s * x + c), atol=1e-12)


def test_compose_branches_matches_direct():
    """The composition with a tent-like two-branch map on [0, 1]."""
    map_ = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 0.5), 2.0, 0.0), ((0.5, 1.0), -2.0, 2.0)])
    rng = np.random.default_rng(5)
    f = random_paf(rng, 0.0, 1.0)
    g = koopman(map_, f)
    x = rng.uniform(0, 1, 300)
    tx = np.where(x < 0.5, 2 * x, 2 - 2 * x)
    np.testing.assert_allclose(g(x), f(tx), atol=1e-12)


def test_scale_and_divide_by_step():
    rng = np.random.default_rng(6)
    f = random_paf(rng)
    w = PAF.step([-1.0, 0.0, 1.0], [2.0, 0.5])
    x = rng.uniform(-1, 1, 100)
    np.testing.assert_allclose(f.scale_by_step(w)(x), f(x) * w(x), atol=1e-12)
    q = f.scale_by_step(w).scale_by_step(w.reciprocal_step())
    np.testing.assert_allclose(q(x), f(x), atol=1e-12)


def test_scale_by_step_rejects_a_weight_with_a_slope():
    """An affine weight's slope is not dropped: x * 1 is not the zero function."""
    with pytest.raises(ValueError, match="scale_by_step requires a step function"):
        PAF.constant(0.0, 1.0, 1.0).scale_by_step(PAF.affine(0.0, 1.0, 1.0, 0.0))


def test_divide_by_step_masks_below_floor():
    f = PAF.constant(0.0, 1.0, 3.0)
    w = PAF.step([0.0, 0.5, 1.0], [1.0, 0.0])
    q = f.scale_by_step(w.reciprocal_step())
    assert q(0.25) == 3.0 and q(0.75) == 0.0


def test_windowing():
    f = PAF.constant(-1.0, 1.0, 2.0)
    w = f.windowed_union([(-0.25, 0.5)])
    assert w(0.0) == 2.0 and w(-0.5) == 0.0 and w(0.75) == 0.0
    assert w.integral() == pytest.approx(1.5, abs=1e-14)
    wu = f.windowed_union([(-0.9, -0.5), (0.5, 0.9)])
    assert wu.integral() == pytest.approx(1.6, abs=1e-14)


def test_windowing_emits_no_cell_below_the_breakpoint_tolerance():
    """A window end within _BP_EPS of the span end merges into it, as every
    grid union does; it leaves no sliver cell."""
    w = PAF.constant(-1.0, 1.0, 1.0).windowed_union([(0.0, 1.0 - 3e-16), (0.5, 1.5)])
    assert w.breakpoints.tolist() == [-1.0, 0.0, 0.5, 1.0]
    assert w.intercepts.tolist() == [0.0, 1.0, 1.0]


def test_abs_and_norms():
    f = PAF.affine(-1.0, 1.0, 1.0, 0.0)  # f(x) = x
    assert f.abs()(-0.5) == 0.5
    assert f.norm_l1() == pytest.approx(1.0, abs=1e-14)
    assert f.norm_l2() ** 2 == pytest.approx(2.0 / 3.0, abs=1e-14)
    w = PAF.constant(-1.0, 1.0, 0.5)
    assert f.norm_l2(w) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_pruned_merges_equal_cells():
    f = PAF(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]))
    g = f.pruned()
    assert g.num_pieces == 2
    x = np.linspace(0, 1, 21)
    np.testing.assert_allclose(g(x), f(x), atol=1e-15)


def test_embed_and_merge_grids():
    f = PAF.constant(0.0, 1.0, 1.0)
    e = PAF.step([-1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert e(-0.5) == 0.0 and e(0.5) == 1.0 and e(1.5) == 0.0
    grid = merge_grids([f, e])
    assert grid[0] == -1.0 and grid[-1] == 2.0


def test_cell_index_clamps_to_the_span():
    """Points past either end take the end cell; a point on a breakpoint
    takes the cell to its right, the last breakpoint the last cell."""
    f = PAF.step([0.0, 0.5, 1.0, 2.0], [1.0, 2.0, 3.0])
    x = np.array([-1.0, 0.0, 0.5, 0.75, 1.0, 2.0, 3.0])
    assert f.cell_index(x).tolist() == [0, 0, 1, 1, 2, 2, 2]


def test_sup_norm():
    f = PAF.affine(-1.0, 1.0, 2.0, 0.5)
    assert f.sup_norm() == pytest.approx(2.5, abs=1e-15)


# ----------------------------------------------------------------------
# property tests: the merged-grid lookup against a midpoint search
# ----------------------------------------------------------------------

def reference_coeffs_on(f, mids):
    """(slope, intercept) of f at each cell midpoint, found by binary-searching
    every midpoint in f's breakpoints; 0 outside f's span."""
    idx = f.cell_index(mids)
    sl = f.slopes[idx].copy()
    ic = f.intercepts[idx].copy()
    outside = (mids < f.breakpoints[0]) | (mids > f.breakpoints[-1])
    sl[outside] = 0.0
    ic[outside] = 0.0
    return sl, ic


def reference_pw_sum(fns):
    """Sum over the grid of the summands, each first extended by zero pieces
    to the union span."""
    lo = min(f.lo for f in fns)
    hi = max(f.hi for f in fns)
    grid = merge_grids([ref.embed(f, lo, hi) for f in fns])
    mids = 0.5 * (grid[:-1] + grid[1:])
    sl = np.zeros(len(mids))
    ic = np.zeros(len(mids))
    for f in fns:
        s, c = reference_coeffs_on(f, mids)
        sl += s
        ic += c
    return PAF(grid, sl, ic, validate=False)


def reference_integrate_product(fns, lo=None, hi=None):
    """Product integral with a second mask of the cells outside each factor."""
    span_lo = max(f.lo for f in fns) if lo is None else lo
    span_hi = min(f.hi for f in fns) if hi is None else hi
    if span_hi <= span_lo:
        return 0.0
    grid = merge_grids(fns, span_lo, span_hi)
    w = np.diff(grid)
    mids = 0.5 * (grid[:-1] + grid[1:])
    vals = []
    slps = []
    for f in fns:
        s, c = reference_coeffs_on(f, mids)
        outside = (mids < f.lo) | (mids > f.hi)
        v = s * mids + c
        v[outside] = 0.0
        s = np.where(outside, 0.0, s)
        vals.append(v)
        slps.append(s)
    if len(fns) == 1:
        cell = vals[0]
    elif len(fns) == 2:
        cell = vals[0] * vals[1] + slps[0] * slps[1] * w**2 / 12.0
    else:
        v1, v2, v3 = vals
        s1, s2, s3 = slps
        cell = v1 * v2 * v3 + (w**2 / 12.0) * (v1 * s2 * s3 + s1 * v2 * s3 + s1 * s2 * v3)
    return _dot(w, cell)


def reference_compose_branches(f, map_):
    """f o T with each branch's part written onto the merged cells whose
    midpoints lie strictly inside its span, found by midpoint search."""
    parts = [ref.compose_affine(f, s, c, piece.lo, piece.hi) for (piece, s, c) in map_.branches]
    grid = _dedupe_breakpoints(np.concatenate([part.breakpoints for part in parts]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    sl = np.zeros(len(mids))
    ic = np.zeros(len(mids))
    for part in parts:
        inside = (mids > part.lo) & (mids < part.hi)
        if not np.any(inside):
            continue
        idx = part.cell_index(mids[inside])
        sl[inside] = part.slopes[idx]
        ic[inside] = part.intercepts[idx]
    return PAF(grid, sl, ic, validate=False)


def assert_same_bytes(got, expect):
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()


def assert_same_function(got, expect):
    assert_same_bytes(got.breakpoints, expect.breakpoints)
    assert_same_bytes(got.slopes, expect.slopes)
    assert_same_bytes(got.intercepts, expect.intercepts)


def random_summands(rng, n):
    """n functions on sub-intervals of [-1, 1] whose breakpoints come from one
    shared pool of 40 points, each taken as is or 1e-15..1e-14 above (so
    summands nearly share breakpoints); about one in five has a single piece."""
    pool = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 38)))
    fns = []
    for _ in range(n):
        k = 1 if rng.random() < 0.2 else int(rng.integers(2, 9))
        pts = rng.choice(pool, size=k + 1, replace=False) + rng.integers(0, 11, size=k + 1) * 1e-15
        bp = np.unique(pts)
        if len(bp) < 2:
            bp = np.array([-1.0, 1.0])
        slopes = np.where(rng.random(len(bp) - 1) < 0.5, 0.0, rng.normal(size=len(bp) - 1))
        fns.append(PAF(bp, slopes, rng.normal(size=len(bp) - 1)))
    return fns


@pytest.mark.parametrize("mids", [[0.5], [0.0, 1.0], [-0.5, 0.5, 1.5]])
def test_coeffs_on_midpoint_on_a_breakpoint(mids):
    """Random grids almost never put a midpoint on a breakpoint: there it takes
    the piece to its right, at the last breakpoint the last piece, as f(x) does."""
    f = PAF([0.0, 0.5, 1.0], [1.0, 2.0], [3.0, 4.0])
    mids = np.array(mids)
    sl, ic = f._coeffs_on(mids)
    np.testing.assert_array_equal(sl * mids + ic, f(mids))
    expect = reference_coeffs_on(f, mids)
    assert_same_bytes(sl, expect[0])
    assert_same_bytes(ic, expect[1])


@given(partial_functions(), partial_functions())
def test_property_coeffs_on_matches_midpoint_search(f, g):
    for grid in (merge_grids([f, g]), merge_grids([f])):
        mids = 0.5 * (grid[:-1] + grid[1:])
        got = f._coeffs_on(mids)
        expect = reference_coeffs_on(f, mids)
        assert_same_bytes(got[0], expect[0])
        assert_same_bytes(got[1], expect[1])


def with_repeated_grid(rng, fns):
    """fns with up to 11 summands on one grid put in at random places: a new
    grid on a random span or the grid of a summand in fns, shared as the same
    array or as a copy with the same bytes, with slopes all +0.0, all -0.0,
    mixed ±0.0 or drawn."""
    fns = list(fns)
    if fns and rng.random() < 0.5:
        bp = fns[int(rng.integers(len(fns)))].breakpoints
    else:
        bp = np.unique(rng.uniform(-1.0, 1.0, int(rng.integers(2, 9))))
    for _ in range(int(rng.integers(0, 12))):
        k = len(bp) - 1
        slopes = [np.zeros(k), np.full(k, -0.0), np.where(rng.random(k) < 0.5, 0.0, -0.0), rng.normal(size=k)]
        g = PAF(bp if rng.random() < 0.5 else bp.copy(), slopes[int(rng.integers(4))], rng.normal(size=k))
        fns.insert(int(rng.integers(len(fns) + 1)), g)
    return fns


@given(st.lists(partial_functions(), max_size=3), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_property_pw_sum_matches_reference(drawn, n, seed):
    """Up to three drawn summands followed by n from a shared breakpoint pool,
    with summands that repeat one grid put in among them."""
    rng = np.random.default_rng(seed)
    fns = with_repeated_grid(rng, drawn + random_summands(rng, n))
    assume(fns)
    assert_same_function(pw_sum(fns), reference_pw_sum(fns))


def test_pw_sum_of_repeated_grids_peak_memory():
    """A dyadic end of `clt.partial_sum_norms` adds up to 257 iterates that
    repeat a few grids.  With 257 step summands alternating between two
    150-piece grids, pw_sum's traced peak stays at or below 354,383 bytes,
    the peak of the merge that concatenated every summand's grid (numpy
    2.4.6); holding every summand's repeat at once would pass it."""
    rng = np.random.default_rng(33)
    grids = [np.linspace(-1.0, 1.0, 151), np.sort(np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 149))))]
    fns = [PAF(grids[k % 2], np.zeros(150), rng.normal(size=150)) for k in range(257)]
    pw_sum(fns)
    tracemalloc.start()
    try:
        pw_sum(fns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 354_383


@given(st.lists(partial_functions(), min_size=1, max_size=3), st.booleans(), spans(-1.5, 1.5))
def test_property_integrate_product_matches_reference(fns, clip, window):
    lo, hi = window if clip else (None, None)
    got = integrate_product(fns, lo, hi)
    assert_same_bytes(got, reference_integrate_product(fns, lo, hi))


@given(maps_and_functions_through())
def test_property_compose_branches_matches_reference(case):
    """The reference's bits where the composition's plan was built in one
    pass before the merge joined the plan, else the oracle's bound."""
    map_, f = case
    got = koopman(map_, f)
    if ref.one_pass_plan_ran(map_, f.breakpoints, push=False):
        assert_same_function(got, reference_compose_branches(f, map_).pruned())
    else:
        exact = oracle.compose(map_, oracle.exact(f))
        assert oracle.l1_distance(got, exact) <= oracle.bound(1, f.sup_norm(), oracle.width(map_), prunes=1)


@given(st.lists(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 1e-15, 0.25, 0.5, 1.0]), min_size=1), min_size=1))
def test_property_sorted_union_matches_unique(grids):
    """np.unique's steps, down to which of -0.0 and 0.0 is kept."""
    grids = [np.array(g) for g in grids]
    assert_same_bytes(_sorted_union(grids), np.unique(np.concatenate(grids)))


def test_sorted_union_of_empty_grids_is_empty():
    """A one-branch map and a one-piece function have no inner cuts to merge."""
    assert_same_bytes(_sorted_union([np.array([]), np.array([])]), np.array([]))


@st.composite
def l1_cases(draw):
    """A drawn function (sign crossings likely, breakpoint twins often), its
    step part, or the function moved clear of zero."""
    f = draw(partial_functions())
    kind = draw(st.sampled_from(["drawn", "step", "positive"]))
    if kind == "step":
        return PAF(f.breakpoints, np.zeros(f.num_pieces), f.intercepts)
    if kind == "positive":
        return PAF(f.breakpoints, f.slopes, f.intercepts + 11.0)
    return f


@given(l1_cases())
def test_property_norm_l1_matches_abs_integral(f):
    assert_same_bytes(f.norm_l1(), integrate_product([f.abs()]))


def test_norm_l1_paths(monkeypatch):
    """A step function takes the dot-product route; a sign crossing, and twin
    breakpoints that merging would move, take the `abs()` route.  Both give
    the integral of |f|."""
    calls = []
    orig_abs = PAF.abs
    monkeypatch.setattr(PAF, "abs", lambda f: calls.append(f) or orig_abs(f))
    cases = [
        (PAF.step([0.0, 0.3, 1.0], [2.0, -1.0]), 1.3, 0),
        (PAF([0.0, 0.6, 1.0], [2.0, 0.0], [-1.0, 3.0]), 1.46, 1),
        (PAF.step([0.0, 0.3, 0.3 + 3e-15, 1.0], [2.0, -1.0, 4.0]), 3.4, 1),
    ]
    for f, expect, abs_calls in cases:
        calls.clear()
        got = f.norm_l1()
        assert len(calls) == abs_calls
        assert got == pytest.approx(expect, abs=1e-14)
        assert_same_bytes(got, integrate_product([orig_abs(f)]))


@given(st.lists(partial_functions(), min_size=1, max_size=4))
def test_property_integral_of_sum(fns):
    """∫ pw_sum(fs) = Σ ∫ f, up to the cells of width <= 1e-14 that merging
    breakpoint twins hands to a neighbouring piece."""
    expect = sum(f.integral() for f in fns)
    assert pw_sum(fns).integral() == pytest.approx(expect, abs=1e-11)


# Products of small coefficients may underflow; each cell then loses at most
# one subnormal step, far below this floor.
UNDERFLOW = 1e-300


@given(st.lists(partial_functions(), min_size=2, max_size=3))
def test_property_product_factor_order(fns):
    """Reordering the factors moves only rounding: 1e-12 relative to the
    integral of the product's absolute value."""
    scale = abs(integrate_product([f.abs() for f in fns]))
    expect = integrate_product(fns)
    for perm in itertools.permutations(fns):
        got = integrate_product(list(perm))
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12 * scale + UNDERFLOW)


@given(st.lists(partial_functions(), min_size=1, max_size=2), st.floats(-5.0, 5.0))
def test_property_product_with_constant(fns, c):
    lo = max(f.lo for f in fns)
    hi = min(f.hi for f in fns)
    assume(lo < hi)
    const = PAF.constant(lo, hi, c)
    scale = abs(c * integrate_product([f.abs() for f in fns]))
    expect = c * integrate_product(fns)
    got = integrate_product(fns + [const])
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12 * scale + UNDERFLOW)

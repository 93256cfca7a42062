"""Replaced algorithms, kept as they were so that tests can hold the
package to their bytes:

- the orbit engines before piece lookup became a count of cuts: binary
  searches in float space and one uint64 -> float conversion per
  bit-engine step;
- `variance_profile` before each component value went through
  `_series_estimate`, and `condition_report` with the per-lag sup-norm
  interpolation bound, iterate norms and decay-rate fit it used to compute;
- the conjugacy assembly that built the tent density at a <= sqrt(2) from
  the density at a^2, one level per squaring, before the density had a
  closed form.  It is now an identity the closed form must satisfy;
- the tent density from a 4096-cell Ulam chain, windowed to the invariant
  core, which the mean-recursion criterion integrated against before it
  used the closed form;
- the Ulam matrix build that held every per-offset entry list and the last
  branch's arrays through its COO -> CSR conversion, and handed it intp
  indices;
- the Ulam push as a row vector times the row-stochastic matrix, and the
  Cesaro power iteration that kept its last 64 iterates in a deque and
  averaged each window with `np.mean` over the stacked iterates;
- the power iteration with running window sums and the periodicity
  detection as they pushed every cell of the chain at every step, before
  they iterated only the image cells and the cells reachable from the
  seed; the detection seeded the cell at `np.argmax` of the density's
  intercepts, which is a cell of the chain only for its own density;
- the density CSV rendered as one text, and the sample CSV written one
  formatted row at a time, then rendered as one text;
- the density JSON with its cell list built at once and dumped as one text;
- the Perron-Frobenius push that recomputed its geometry (preimages,
  union grid, cell cover) on every call;
- the algebra methods the push and the composition were built from before
  they shared one plan: `compose_affine`, `compose_branches` (f o T on the
  concatenated branch grids) and `embed` (zero pieces out to a span);
- the condition under which the plan was built in one pass, before its
  output grid was merged, and so had the bits of the constructions above;
- `dyadic_block_norms` with its own pass of the iterates, before it and
  `condition_report` shared one;
- `variance_profile_dyadic` with its own pass of the iterates and its
  per-component integration of each lag, before it read its lags from
  `autocovariance_sequence`; it returns the profile with the running value
  after each level, which the profile no longer keeps;
- `limit_law_check` with the initial points passed apart from the sample,
  and its two hand-written report branches, one for the mixture and one
  for the components, each with its own degenerate skip.  Its component
  CDF is the package's one-term mixture, so the reference follows the
  package's Phi.
"""

import itertools
import json
import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from ergclt import densities, transfer
from ergclt.clt import (VarianceProfile, _clamp_sigma2, _component_mass, _fit_slope, _geometric_tail,
                        autocovariance_sequence, blocked_observable)
from ergclt.densities import (_CESARO_WINDOWS, _DETECT_MAX_ITER, _DETECT_WINDOW, _POWER_MAX_ITER, _SUPPORT_EPS,
                              ConvergenceError, DetectionError, UlamOperator, _support_cycle_length)
from ergclt.maps import Interval, _tent_core_interval, tent_conjugacy, tent_fixed_point, tent_map
from ergclt.piecewise import (_BP_EPS, MEASURE_TOL, PiecewiseAffineFunction, _cells_covered, _dedupe_breakpoints,
                              integrate_product, pw_sum)
from ergclt.simulate import (_STREAM_BITS, _TWO64, GofReport, _dyadic_engine_params, _rng, ks_statistic,
                             mixture_normal_cdf)


def branch_index(map_, x):
    edges = np.array([map_.branches[0][0].lo] + [piece.hi for (piece, _, _) in map_.branches])
    idx = edges.searchsorted(x, side="right") - 1
    return np.minimum(np.maximum(idx, 0, out=idx), len(map_.branches) - 1, out=idx)


def step(map_, x):
    idx = branch_index(map_, x)
    out = map_._slopes[idx] * x + map_._intercepts[idx]
    np.maximum(out, map_.domain.lo, out=out)
    return np.minimum(out, map_.domain.hi, out=out)


def orbit_points(map_, inits, seed, n_steps):
    """Yield the points x_0, ..., x_(n_steps-1) of every path's orbit."""
    p = _dyadic_engine_params(map_)
    x = np.array(inits, dtype=float)
    if p is not None:
        bits = _rng(seed, _STREAM_BITS)
        u0 = np.clip((x - p["lo"]) / p["width"], 0.0, 1.0 - 2.0**-53)
        low = bits.integers(0, _TWO64, size=len(x), dtype=np.uint64) & np.uint64(0x7FF)
        w = (u0 * 2.0**64).astype(np.uint64) ^ low
        flip = np.zeros(len(x), dtype=np.uint64)
    for k in range(n_steps):
        if p is not None:
            x = p["lo"] + p["width"] * (w.astype(np.float64) * 2.0**-64)
        yield x
        if k + 1 == n_steps:
            return
        if p is None:
            x = step(map_, x)
            continue
        if k % 64 == 0:
            row = bits.integers(0, _TWO64, size=len(x), dtype=np.uint64)
        idx = np.searchsorted(p["thresholds"], w, side="right")
        bit = (row >> np.uint64(63 - k % 64)) & np.uint64(1)
        bit ^= flip
        doubled = (w << np.uint64(1)) | bit
        off = p["offset"][idx]
        neg = p["neg"][idx]
        w = np.where(neg, off - doubled - np.uint64(1), doubled + off)
        flip = np.where(neg, flip ^ np.uint64(1), flip)


def evaluator(f):
    bp, sl, ic = f.breakpoints, f.slopes, f.intercepts
    last = len(sl) - 1
    if last == 0:
        s0, c0 = sl[0], ic[0]
        return lambda x: s0 * x + c0
    inner = bp[1:-1]

    def ev(x):
        idx = inner.searchsorted(x, side="right")
        return sl[idx] * x + ic[idx]

    return ev


def orbit(map_, f, inits, seed, n_steps):
    """The reference for `simulate._orbit`: f at each point of orbit_points."""
    ev = evaluator(f)
    return (ev(x) for x in orbit_points(map_, inits, seed, n_steps))


def variance_profile(components, h, map_, transfer_action, J=64):
    h.check_centered(transfer_action.gstar)
    r = 1
    for comp in components:
        r *= comp.period
    hr = blocked_observable(h, map_, r)
    out = []
    for comp in components:
        first = comp.intervals[0]
        mass = sum(transfer_action.gstar.integral(iv.lo, iv.hi) for iv in comp.intervals)
        if mass <= 0:
            raise ValueError("component carries no invariant mass")
        terms, exhausted = autocovariance_sequence(
            hr, transfer_action, J, step=r, window=[(first.lo, first.hi)]
        )
        _geometric_tail(terms, exhausted)  # raises on divergence diagnostics
        value = float(comp.period / mass * (terms[0] + 2.0 * terms[1:].sum()))
        out.append((comp.as_pairs(), _clamp_sigma2(value, terms)))
    return VarianceProfile(components=out, method="autocov")


def variance_profile_dyadic(h, transfer_action, components, J=16):
    """(profile, level_partials): level_partials[i][j] is component i's value
    after level j."""
    h.check_centered(transfer_action.gstar)
    max_lag = 2 ** (J + 1) - 1
    supports = [comp.as_pairs() for comp in components]
    ncomp = len(supports)
    cov = np.zeros((ncomp, max_lag + 1))
    masses = np.empty(ncomp)
    base = np.empty(ncomp)
    for i, pairs in enumerate(supports):
        masses[i] = _component_mass(transfer_action.gstar, pairs)
        base[i] = sum(integrate_product([h.f, h.f, transfer_action.gstar], lo, hi)
                      for (lo, hi) in pairs) / masses[i]
    lags = itertools.islice(transfer_action.iterates(transfer_action.weighted(h.f)), max_lag)
    for s, (v, _) in enumerate(lags, start=1):
        for i, pairs in enumerate(supports):
            cov[i, s] = sum(integrate_product([v, h.f], lo, hi) for (lo, hi) in pairs) / masses[i]

    values = base.copy()
    partials = [[] for _ in range(ncomp)]
    for j in range(J + 1):
        n = 2**j
        s = np.arange(1.0, 2 * n)
        w = np.minimum(s, 2 * n - s)
        level = np.einsum("ij,j->i", cov[:, 1:2 * n], w) / float(n)
        values = values + level
        for i in range(ncomp):
            partials[i].append(float(values[i]))
    comps = [(pairs, _clamp_sigma2(float(values[i]), partials[i])) for i, pairs in enumerate(supports)]
    return VarianceProfile(components=comps, method="dyadic"), partials


def _fit_decay_rate(norms):
    norms = np.asarray(norms)
    pos = norms > 0
    if not np.all(pos):
        return 0.0
    n = len(norms)
    start = n // 2 if n >= 4 else 0
    idx = np.arange(start + 1, n + 1, dtype=float)
    logs = np.log(norms[start:])
    if len(idx) < 2:
        return 1.0
    return math.exp(_fit_slope(idx, logs))


def condition_report(h, transfer_action, K=64):
    """Returns (V, series_partial, dyadic_partial, theta, iterate_norm2, interp_bound)."""
    if K < 8:
        raise ValueError("need K >= 8")
    mean = integrate_product([h, transfer_action.gstar])
    if abs(mean) > MEASURE_TOL:
        raise ValueError(f"observable is not centered: ∫ h dν = {mean:.3e}")
    ginv = transfer_action.ginv
    sup_h = h.sup_norm()

    running = transfer_action.weighted(h)
    V = []
    pt2 = []
    interp = []
    for v, l1 in itertools.islice(transfer_action.iterates(running), K):
        V.append(running.norm_l2(ginv))
        running = pw_sum([running, v]).pruned()
        pt2.append(v.norm_l2(ginv))
        interp.append(math.sqrt(max(sup_h, 0.0) * l1))
    if len(V) < K:
        V.extend([running.norm_l2(ginv)] * (K - len(V)))
        pt2.append(0.0)
        interp.append(0.0)
    theta = _fit_decay_rate(np.array(pt2))

    ns = np.arange(1, K + 1, dtype=float)
    series_partial = np.cumsum(np.array(V) * ns ** (-1.5)).tolist()
    dyadic = []
    total = 0.0
    j = 0
    while 2**j <= K:
        total += 2.0 ** (-j / 2.0) * V[2**j - 1]
        dyadic.append(total)
        j += 1
    return V, series_partial, dyadic, theta, pt2, interp


def tent_density_from_square(a, g_sq):
    """The tent density at a <= sqrt(2) assembled from the density g_sq at
    a^2 through the two inverse conjugacy branches: g_sq scaled by a/(2 x*)
    on the right invariant interval [x*, x*(1+2/a)] (branch 0) and by
    1/(2 x*) on the central one [-x*, x*] (branch 1)."""
    xs = tent_fixed_point(a)
    parts = []
    for i in (0, 1):
        fwd, _ = tent_conjugacy(a, i)
        iv = Interval(-xs, xs) if i == 1 else Interval(xs, xs * (1.0 + 2.0 / a))
        part = compose_affine(g_sq, fwd.slope, fwd.intercept, iv.lo, iv.hi)
        factor = a / (2.0 * xs) if i == 0 else 1.0 / (2.0 * xs)
        parts.append(part * factor)
    central, right = parts[1], parts[0]
    bp = np.concatenate((central.breakpoints, right.breakpoints[1:]))
    sl = np.concatenate((central.slopes, right.slopes))
    ic = np.concatenate((central.intercepts, right.intercepts))
    return embed(PiecewiseAffineFunction(bp, sl, ic), -1.0, 1.0).pruned()


def tent_ulam_density(a, grid_n=4096):
    """Ulam invariant density of the tent map, windowed to the invariant core.

    The true density vanishes outside [T_a^2(0), T_a(0)]; boundary cells of
    the discrete chain can hold a little stray mass, which is clipped and the
    density renormalized.
    """
    fn = densities.invariant_density(densities.ulam_matrix(tent_map(a), grid_n))
    core = _tent_core_interval(a)
    if core.lo > -1.0 + 1e-12 or core.hi < 1.0 - 1e-12:
        fn = fn.windowed_union([(core.lo, core.hi)])
        mass = fn.integral()
        fn = fn * (1.0 / mass)
    return fn.pruned()


def ulam_rows(map_, n):
    """The row-stochastic Ulam matrix as `ulam_matrix` built it, entry lists
    and branch arrays alive through the COO -> CSR conversion."""
    lo, hi = map_.domain.lo, map_.domain.hi
    edges = np.linspace(lo, hi, n + 1)
    w = (hi - lo) / n
    rows_i = []
    cols_j = []
    vals = []
    for (piece, s, c) in map_.branches:
        i0 = max(int(np.floor((piece.lo - lo) / w)), 0)
        i1 = min(int(np.ceil((piece.hi - lo) / w)), n)
        idx = np.arange(i0, i1)
        seg_lo = np.maximum(edges[idx], piece.lo)
        seg_hi = np.minimum(edges[idx + 1], piece.hi)
        keep = seg_hi - seg_lo > 1e-15 * max(1.0, abs(hi), abs(lo))
        idx, seg_lo, seg_hi = idx[keep], seg_lo[keep], seg_hi[keep]
        if len(idx) == 0:
            continue
        a_img = s * seg_lo + c
        b_img = s * seg_hi + c
        img_lo = np.minimum(a_img, b_img)
        img_hi = np.maximum(a_img, b_img)
        frac = (seg_hi - seg_lo) / w
        j_lo = np.clip(np.searchsorted(edges, img_lo, side="right") - 1, 0, n - 1)
        j_hi = np.clip(np.searchsorted(edges, img_hi, side="left") - 1, 0, n - 1)
        span = int((j_hi - j_lo).max()) + 1
        img_len = img_hi - img_lo
        for off in range(span):
            j = np.minimum(j_lo + off, j_hi)
            ov = np.minimum(img_hi, edges[j + 1]) - np.maximum(img_lo, edges[j])
            ov = np.maximum(ov, 0.0)
            m = (off <= j_hi - j_lo) & (ov > 0) & (img_len > 0)
            if not np.any(m):
                continue
            rows_i.append(idx[m])
            cols_j.append(j[m])
            vals.append(frac[m] * ov[m] / img_len[m])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows_i), np.concatenate(cols_j))),
        shape=(n, n),
    ).tocsr()
    mat.sum_duplicates()
    return mat


class RowPushUlam(UlamOperator):
    """An Ulam operator that pushes a mass vector as `d @ rows`."""

    def apply_to_masses(self, d):
        return d @ self.rows


def invariant_density(op, *, tol=1e-10, return_info=False):
    n = op.grid_n
    buf_len = max(_CESARO_WINDOWS)
    d = np.full(n, 1.0 / n)
    buf = deque([d], maxlen=buf_len)
    best_res = math.inf
    best = d
    check_every = buf_len
    steps = 0
    while steps < _POWER_MAX_ITER:
        for _ in range(check_every):
            d = op.apply_to_masses(d)
            steps += 1
            buf.append(d)
        recent = list(buf)
        for wdw in _CESARO_WINDOWS:
            if len(recent) < wdw:
                continue
            avg = np.mean(recent[-wdw:], axis=0)
            avg = avg / avg.sum()
            res = float(np.abs(op.apply_to_masses(avg) - avg).sum())
            if res < best_res:
                best_res = res
                best = avg
        if best_res <= tol:
            break
        check_every = min(2 * check_every, 4096)
    if best_res > tol:
        raise ConvergenceError(f"no invariant density after {steps} iterations", best_res)
    best = np.maximum(best, 0.0)
    best /= best.sum()
    fn = op.masses_to_density(best)
    if return_info:
        return fn, {"residual": best_res, "iterations": steps}
    return fn


def full_width_invariant_density(op, *, tol=1e-10, return_info=False):
    n = op.grid_n
    d = np.full(n, 1.0 / n)
    sums = [np.zeros(n) for _ in _CESARO_WINDOWS]
    best_res = math.inf
    best = d
    check_every = max(_CESARO_WINDOWS)
    steps = 0
    while steps < _POWER_MAX_ITER:
        for left in range(check_every, 0, -1):
            d = op.apply_to_masses(d)
            steps += 1
            for wdw, acc in zip(_CESARO_WINDOWS, sums):
                if left <= wdw:
                    acc += d
        for wdw, acc in zip(_CESARO_WINDOWS, sums):
            acc /= wdw
            avg = acc / acc.sum()
            acc.fill(0.0)
            res = float(np.abs(op.apply_to_masses(avg) - avg).sum())
            if res < best_res:
                best_res = res
                best = avg
        if best_res <= tol:
            break
        check_every = min(2 * check_every, 4096)
    if best_res > tol:
        raise ConvergenceError(f"no invariant density after {steps} iterations", best_res)
    best = np.maximum(best, 0.0)
    best /= best.sum()
    fn = op.masses_to_density(best)
    if return_info:
        return fn, {"residual": best_res, "iterations": steps}
    return fn


def full_width_detect_periodicity(op, density):
    seed = int(np.argmax(density.intercepts))
    d = np.zeros(op.grid_n)
    d[seed] = 1.0
    burn = 512
    steps = 0
    while steps < _DETECT_MAX_ITER:
        target = min(burn, _DETECT_MAX_ITER - steps - _DETECT_WINDOW)
        for _ in range(max(target, 0)):
            d = op.apply_to_masses(d)
            steps += 1
        supports = []
        for _ in range(_DETECT_WINDOW):
            d = op.apply_to_masses(d)
            steps += 1
            supports.append(np.packbits(d > _SUPPORT_EPS).tobytes())
        r = _support_cycle_length(supports)
        if r is not None:
            return r
        burn *= 2
    raise DetectionError(f"no support cycle within {_DETECT_MAX_ITER} iterations")


def sample_csv(sample, path):
    with open(path, "w", newline="") as fh:
        fh.write("path_id,t,value\n")
        for i in range(sample.paths.shape[0]):
            for t, v in zip(sample.t_grid, sample.paths[i]):
                fh.write(f"{i},{float(t)!r},{float(v)!r}\n")


def sample_csv_text(sample):
    times = [repr(float(t)) for t in sample.t_grid]
    rows = itertools.product(map(str, range(sample.paths.shape[0])), times)
    values = map(repr, sample.paths.ravel().tolist())
    return "path_id,t,value\n" + "".join([f"{i},{t},{v}\n" for (i, t), v in zip(rows, values)])


def density_csv(density):
    edges = list(map(repr, density.breakpoints.tolist()))
    values = list(map(repr, density.piece_values().tolist()))
    return "cell_lo,cell_hi,value\n" + "\n".join(map(",".join, zip(edges, edges[1:], values))) + "\n"


def density_json(payload, density):
    edges, values = density.breakpoints.tolist(), density.piece_values().tolist()
    payload = dict(payload, cells=[{"cell_lo": lo, "cell_hi": hi, "value": v}
                                   for lo, hi, v in zip(edges, edges[1:], values)])
    return json.dumps(payload, sort_keys=True, default=float) + "\n"


def composed(f, slope, intercept, lo, hi):
    pre = (f.breakpoints - intercept) / slope
    if slope < 0:
        pre = pre[::-1]
    inner = pre[(pre > lo) & (pre < hi)]
    grid = _dedupe_breakpoints(np.concatenate(([lo], inner, [hi])))
    mids = 0.5 * (grid[:-1] + grid[1:])
    y = slope * mids + intercept
    idx = f.cell_index(y)
    sl = f.slopes[idx]
    sl, ic = sl * slope, sl * intercept + f.intercepts[idx]
    f_lo, f_hi = f.breakpoints[0], f.breakpoints[-1]
    if min(y[0], y[-1]) < f_lo or max(y[0], y[-1]) > f_hi:
        outside = (y < f_lo) | (y > f_hi)
        sl[outside] = 0.0
        ic[outside] = 0.0
    return grid, sl, ic


def frobenius_perron(map_, f):
    lo, hi = map_.domain.lo, map_.domain.hi
    parts = []
    for (piece, s, c) in map_.branches:
        a_img, b_img = s * piece.lo + c, s * piece.hi + c
        img_lo, img_hi = min(a_img, b_img), max(a_img, b_img)
        if img_hi - img_lo < 1e-15:
            continue
        grid, sl, ic = composed(f, 1.0 / s, -c / s, img_lo, img_hi)
        k = 1.0 / abs(s)
        parts.append(embed(PiecewiseAffineFunction(grid, sl * k, ic * k, validate=False), lo, hi))
    return pw_sum(parts).pruned()


def compose_affine(f, slope, intercept, lo, hi):
    """x -> f(slope*x + intercept) on [lo, hi], slope != 0."""
    return PiecewiseAffineFunction(*composed(f, slope, intercept, lo, hi), validate=False)


def compose_branches(f, map_):
    """f o T: each branch composed over its piece, the parts' grids
    concatenated, and each part placed on the merged cells it covers."""
    parts = [compose_affine(f, s, c, piece.lo, piece.hi) for (piece, s, c) in map_.branches]
    grid = _dedupe_breakpoints(np.concatenate([part.breakpoints for part in parts]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    sl = np.zeros(len(mids))
    ic = np.zeros(len(mids))
    for part in parts:
        cells, counts = _cells_covered(part.breakpoints, mids)
        sl[cells] = np.repeat(part.slopes, counts)
        ic[cells] = np.repeat(part.intercepts, counts)
    return PiecewiseAffineFunction(grid, sl, ic, validate=False)


def one_pass_plan_ran(map_, bp, push):
    """Whether the plan of grid bp was built in one pass, with the bits of
    `frobenius_perron` and `compose_branches`, before its output grid was
    merged: every cell of the unmerged output grid was wider than a gap of
    `_BP_EPS`, or 2^-50 (1 + 1/|slope|) for an inverse slope below about
    1/10, times the grid's scale.  Elsewhere the plan was built branch by
    branch over merged grids."""
    table = transfer._branches(map_, push)
    pre = (bp - table.intercept) / table.slope
    out = np.unique(np.concatenate([table.ends, pre[(pre > table.lo) & (pre < table.hi)]]))
    margin = max(_BP_EPS, 2.0**-50 * (1.0 + 1.0 / np.abs(table.slope).min()))
    return bool((out[1:] - out[:-1]).min() > margin * max(1.0, abs(out[0]), abs(out[-1])))


def embed(f, lo, hi):
    """f with its span extended to [lo, hi] by zero pieces."""
    bp, sl, ic = f.breakpoints, f.slopes, f.intercepts
    scale = max(1.0, abs(lo), abs(hi))
    if lo < bp[0] - _BP_EPS * scale:
        bp, sl, ic = np.concatenate(([lo], bp)), np.concatenate(([0.0], sl)), np.concatenate(([0.0], ic))
    if hi > bp[-1] + _BP_EPS * scale:
        bp, sl, ic = np.concatenate((bp, [hi])), np.concatenate((sl, [0.0])), np.concatenate((ic, [0.0]))
    return PiecewiseAffineFunction(bp, sl, ic, validate=False)


def dyadic_block_norms(f, transfer_action, q):
    """L2(nu) norms of sum_{k=1..2^j} P_T^k f for j = 0..q-1, exact quadrature.

    Iterates are collected between dyadic marks and merged in one pass there,
    which is much cheaper than a running per-step sum."""
    lags = transfer_action.iterates(transfer_action.weighted(f.f))
    running = None
    norms = []
    for j in range(q):
        # lags 2^(j-1)+1 .. 2^j (lag 1 alone for j = 0)
        pending = [v for v, _ in itertools.islice(lags, 2 ** (j - 1) if j else 1)]
        if pending:
            running = pw_sum(([running] if running is not None else []) + pending).pruned()
        del pending  # merged: free it before the next block is pushed
        if running is None:
            norms.append(0.0)
        else:
            norms.append(running.norm_l2(transfer_action.ginv))
    return norms


def limit_law_check(sample, profile, init_points):
    inits = np.asarray(init_points, dtype=float)
    if len(inits) != sample.paths.shape[0]:
        raise ValueError("one initial point per path is required")
    masks = []
    for supports, _ in profile.components:
        m = np.zeros(len(inits), dtype=bool)
        for (lo, hi) in supports:
            m |= (inits >= lo) & (inits <= hi)
        masks.append(m)
    assigned = np.zeros(len(inits), dtype=bool)
    for m in masks:
        m &= ~assigned  # points on shared boundaries count once, for the first component
        assigned |= m
    if not np.all(assigned):
        raise ValueError("some initial points lie in no component")
    mixture = profile.mixture([float(m.mean()) for m in masks])

    reports = []
    for col, t in enumerate(sample.t_grid):
        if t <= 0:
            continue
        vals = sample.paths[:, col]
        if all(v * t == 0 for _, v in mixture):
            reports.append(GofReport(0.0, len(vals), {"mixture": mixture}, float(t),
                                     note="degenerate limit: KS skipped"))
        else:
            reports.append(ks_statistic(
                vals, lambda x: mixture_normal_cdf(mixture, float(t), x),
                target={"mixture": mixture}, t=float(t),
            ))
        for m, (supports, v) in zip(masks, profile.components):
            if np.count_nonzero(m) < 2:
                continue
            cond = vals[m]
            if v * t == 0:
                reports.append(GofReport(0.0, len(cond), {"component": list(supports), "sigma2": v},
                                         float(t), note="degenerate component: KS skipped"))
                continue
            reports.append(ks_statistic(
                cond, lambda x: mixture_normal_cdf([(1.0, v)], float(t), x),
                target={"component": [list(s) for s in supports], "sigma2": v}, t=float(t),
            ))
    return reports

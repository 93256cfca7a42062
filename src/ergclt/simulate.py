"""Monte Carlo realization of the scaled partial-sum process and
goodness-of-fit checks against the predicted limit laws.

Randomness contract: every stream is a counter-based Philox generator keyed
by (seed, purpose); each draw is a row with one entry per path, and path i
consumes column i of every row, so path results are pure functions of
(seed, path index) and independent of execution order.  Orbit tail bits come
from one stream as rows of 64-bit words, drawn as they are needed: first a
row whose low 11 bits fill the window below the initial double, then one row
per 64 steps, read from the top bit down.

Maps whose branches all have slope ±2 with dyadic data (the full tent and
the three-branch example) are iterated with an exact sliding-window bit
engine: double-precision orbits of such maps are binary shifts and collapse
onto the critical orbit after ~53 steps, which would destroy the statistics.
The engine keeps the leading 64 bits of the binary expansion and streams
fresh tail bits from the path's generator, which reproduces the law of exact
orbits from stationary initial points.

Both engines yield observable values, not points, and each path-step does one
piece lookup by direct comparisons (`maps.cut_index`, O(cuts) per path-step,
no binary search).  The bit engine merges the branch thresholds and the
observable's breakpoints, each moved to the first 64-bit word whose point
reaches it, into one sorted table of word cuts; the count of cuts at or below
the word is the cell, and the cell's row holds the branch offset and sign and
the observable's slope and intercept.  A step observable is read off the word
through that row; the word is converted to a float only when the observable
has a non-zero slope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clt import Observable, VarianceProfile, dyadic_sum, partial_sum_norms
from .maps import PiecewiseLinearMap, cut_index
from .piecewise import PiecewiseAffineFunction, _sorted_union
from .transfer import NormalizedTransfer, koopman

_TWO64 = 1 << 64

# stream salts: initial points vs orbit tail bits
_STREAM_INIT = 0x1417
_STREAM_BITS = 0xB175


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed % _TWO64, stream], dtype=np.uint64)))


# ----------------------------------------------------------------------
# sampling stationary initial points
# ----------------------------------------------------------------------

def sample_from_density(density: PiecewiseAffineFunction, count: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling from a piecewise-affine density.

    The CDF is piecewise quadratic; each cell is inverted with the
    rationalized quadratic formula, which is stable for near-zero slopes.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    u = _rng(seed, _STREAM_INIT).random(count)
    bp = density.breakpoints
    widths = np.diff(bp)
    left_vals = density.slopes * bp[:-1] + density.intercepts
    cell_mass = widths * (left_vals + 0.5 * density.slopes * widths)
    cum = np.concatenate(([0.0], np.cumsum(cell_mass)))
    total = cum[-1]
    if total <= 0:
        raise ValueError("density has no mass")
    target = u * total
    idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, len(widths) - 1)
    delta = target - cum[idx]
    v = left_vals[idx]
    s = density.slopes[idx]
    disc = np.sqrt(np.maximum(v * v + 2.0 * s * delta, 0.0))
    denom = v + disc
    d = np.where(denom > 0, 2.0 * delta / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(bp[idx] + d, bp[0], bp[-1])


# ----------------------------------------------------------------------
# orbit engines
# ----------------------------------------------------------------------

def _dyadic_engine_params(map_: PiecewiseLinearMap):
    """Exact bit-engine parameters if every branch has slope ±2 and dyadic
    offsets/breakpoints; None otherwise."""
    lo = Fraction(map_.domain.lo)
    width = Fraction(map_.domain.hi) - lo
    thresholds = []
    negs = []
    offsets = []
    for (piece, s, c) in map_.branches:
        fs = Fraction(s)
        if fs != 2 and fs != -2:
            return None
        cu = ((fs - 1) * lo + Fraction(c)) / width
        cu_scaled = cu * _TWO64
        hi_u = (Fraction(piece.hi) - lo) / width * _TWO64
        if cu_scaled.denominator != 1 or hi_u.denominator != 1:
            return None
        negs.append(fs < 0)
        offsets.append(int(cu_scaled) % _TWO64)
        thresholds.append(int(hi_u))
    return {
        "thresholds": np.array(thresholds[:-1], dtype=np.uint64),
        "neg": np.array(negs, dtype=bool),
        "offset": np.array(offsets, dtype=np.uint64),
        "lo": map_.domain.lo,
        "width": map_.domain.hi - map_.domain.lo,
    }


def _word_x(w: np.ndarray, lo: float, width: float) -> np.ndarray:
    """The point lo + width * w / 2^64 that each 64-bit window word stands
    for, rounded in the one order that the engine and the cuts share."""
    return lo + width * (w.astype(np.float64) * 2.0**-64)


def _word_cuts(points, lo: float, width: float) -> np.ndarray:
    """For each point b that some word reaches, the smallest word c with
    _word_x(c) >= b.  _word_x does not decrease in w, so a word w has
    _word_x(w) >= b exactly when w >= c: counting such cuts at or below w
    gives the piece that a search of the floats gives.  Each c is found by
    bisection over that same expression; a point above every word's point
    is left out, since no word would count it."""
    b = np.asarray(points, dtype=float)
    b = b[_word_x(np.array([_TWO64 - 1], dtype=np.uint64), lo, width) >= b]
    below = np.zeros(len(b), dtype=np.uint64)  # the answer lies in [below, top]
    top = np.full(len(b), _TWO64 - 1, dtype=np.uint64)
    for _ in range(64):
        mid = below + (top - below) // np.uint64(2)
        reaches = _word_x(mid, lo, width) >= b
        top = np.where(reaches, mid, top)
        below = np.where(reaches, below, mid + np.uint64(1))
    return top


def _bit_cells(p: dict, f: PiecewiseAffineFunction):
    """One sorted table of word cuts for the bit engine: the branch
    thresholds and the cuts of f's inner breakpoints.  Per cell between
    them: the branch offset, the branch sign as a word mask (all ones on a
    slope -2 branch) and f's slope and intercept there."""
    f_cuts = _word_cuts(f.breakpoints[1:-1], p["lo"], p["width"])
    cuts = _sorted_union([p["thresholds"], f_cuts])
    lowest = np.concatenate((np.zeros(1, dtype=np.uint64), cuts))  # each cell's lowest word
    branch = cut_index(p["thresholds"], lowest)
    piece = cut_index(f_cuts, lowest)
    mask = np.where(p["neg"], np.uint64(_TWO64 - 1), np.uint64(0))
    return cuts, p["offset"][branch], mask[branch], f.slopes[piece], f.intercepts[piece]


def _orbit(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction, inits: np.ndarray,
           seed: int, n_steps: int):
    """Yield f(x_0), ..., f(x_(n_steps-1)) along every path's orbit, a new
    array per step; no step is taken after the last value.  f is read with
    its end pieces extended past its span.

    Maps accepted by _dyadic_engine_params run the sliding-window bit engine,
    which is exact in distribution.  Others run map_.step in double
    precision, where rounding acts as benign pseudo-orbit noise.  Each
    path-step finds its piece with one `cut_index` lookup, O(cuts).  A step
    observable (every slope of f zero) yields its intercept, and the bit
    engine then never forms x: for finite x that is the value of 0*x + c up
    to the sign of a zero, which no partial sum started at +0.0 can see.
    """
    affine = bool(np.any(f.slopes))
    p = _dyadic_engine_params(map_)
    if p is None:
        inner, sl, ic = f.breakpoints[1:-1], f.slopes, f.intercepts
        x = np.array(inits, dtype=float)
        for k in range(n_steps):
            if not affine:
                yield ic.take(cut_index(inner, x))
            elif f.num_pieces == 1:
                yield sl[0] * x + ic[0]
            else:
                piece = cut_index(inner, x)
                yield sl.take(piece) * x + ic.take(piece)
            if k + 1 == n_steps:
                return
            x = map_.step(x)
        return

    cuts, offset, mask, slope, intercept = _bit_cells(p, f)
    has_neg = bool(np.any(mask))
    one = np.uint64(1)
    bits = _rng(seed, _STREAM_BITS)
    u0 = np.clip((np.asarray(inits, dtype=float) - p["lo"]) / p["width"], 0.0, 1.0 - 2.0**-53)
    # A double carries 53 random bits; the bits below it in the window are
    # a deterministic zero block that every orbit would visit around step
    # 53..64 (a spurious excursion to the corner).  Randomize them; this
    # perturbs the initial point by less than one float ulp.
    low = bits.integers(0, _TWO64, size=len(u0), dtype=np.uint64) & np.uint64(0x7FF)
    w = (u0 * 2.0**64).astype(np.uint64) ^ low
    flip = np.zeros(len(w), dtype=np.uint64)
    bit = np.empty(len(w), dtype=np.uint64)
    for k in range(n_steps):
        cell = cut_index(cuts, w)
        if not affine:
            yield intercept.take(cell)
        elif f.num_pieces == 1:
            yield slope[0] * _word_x(w, p["lo"], p["width"]) + intercept[0]
        else:
            yield slope.take(cell) * _word_x(w, p["lo"], p["width"]) + intercept.take(cell)
        if k + 1 == n_steps:
            return
        if k % 64 == 0:
            row = bits.integers(0, _TWO64, size=len(w), dtype=np.uint64)
        np.right_shift(row, np.uint64(63 - k % 64), out=bit)
        np.bitwise_and(bit, one, out=bit)
        np.left_shift(w, one, out=w)
        if has_neg:
            # on a slope -2 branch the new word is offset - doubled - 1, which
            # is offset + (doubled ^ mask) mod 2^64, and the tail bits flip
            np.bitwise_xor(bit, flip, out=bit)
            np.bitwise_or(w, bit, out=w)
            m = mask.take(cell)
            np.bitwise_xor(w, m, out=w)
            np.bitwise_and(m, one, out=m)
            np.bitwise_xor(flip, m, out=flip)
        else:
            np.bitwise_or(w, bit, out=w)
        np.add(w, offset.take(cell), out=w)


# ----------------------------------------------------------------------
# partial-sum paths
# ----------------------------------------------------------------------

@dataclass
class CltSample:
    """Scaled partial-sum values w_n(t) for a batch of paths.

    paths[i, k] is n^(-1/2) times the first floor(n * t_grid[k]) observable
    values along the orbit from inits[i]; the empty sum at t < 1/n is zero.
    """

    n: int
    t_grid: np.ndarray
    paths: np.ndarray
    inits: np.ndarray

    def marginal(self, t: float) -> np.ndarray:
        k = int(np.flatnonzero(np.isclose(self.t_grid, t))[0])
        return self.paths[:, k]

    def to_csv(self, path: str):
        """One row per path and grid time, the floats in `repr`, in one atomic write."""
        from .cli import _atomic_write
        times = [repr(float(t)) for t in self.t_grid]
        rows = itertools.product(map(str, range(self.paths.shape[0])), times)
        values = map(repr, self.paths.ravel().tolist())
        _atomic_write(path, "path_id,t,value\n" + "".join([f"{i},{t},{v}\n" for (i, t), v in zip(rows, values)]))


def partial_sum_paths(map_: PiecewiseLinearMap, h: Observable, n: int, t_grid,
                      inits, seed: int) -> CltSample:
    """Simulate w_n(t) = n^(-1/2) * sum of the first floor(nt) values of h
    along each orbit, at the requested grid times."""
    if n < 1:
        raise ValueError("need n >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((0.0 <= t_grid) & (t_grid <= 1.0)):
        raise ValueError("grid times must lie in [0, 1] (NaN does not)")
    inits = np.asarray(inits, dtype=float)
    if not np.all((map_.domain.lo <= inits) & (inits <= map_.domain.hi)):
        raise ValueError("initial point outside the map domain (or NaN)")
    checkpoints = np.floor(n * t_grid + 1e-12).astype(int)
    out = np.zeros((len(inits), len(t_grid)))
    scale = 1.0 / math.sqrt(n)
    by_step: dict[int, list[int]] = {}
    for col, k in enumerate(checkpoints):
        if k > 0:
            by_step.setdefault(int(k), []).append(col)
    s = np.zeros(len(inits))
    last_k = max(by_step) if by_step else 0
    for j, value in enumerate(_orbit(map_, h.f, inits, seed, last_k), start=1):
        s += value
        for col in by_step.get(j, ()):
            out[:, col] = s * scale
    return CltSample(n=n, t_grid=t_grid, paths=out, inits=inits)


# ----------------------------------------------------------------------
# goodness of fit
# ----------------------------------------------------------------------

@dataclass
class GofReport:
    ks_stat: float
    sample_size: int
    target: dict
    t: float
    note: str = ""


def ks_statistic(samples, cdf, target: dict | None = None, t: float = 1.0) -> GofReport:
    """One-sample Kolmogorov-Smirnov sup-distance against a target CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    stat = float(max(upper.max(), lower.max()))
    return GofReport(ks_stat=stat, sample_size=n, target=target or {}, t=t)


def mixture_normal_cdf(components, t: float, x):
    """CDF of a scale mixture of centered normals at time t:
    sum of w_i * Phi(x / sqrt(v_i * t))."""
    from scipy.special import ndtr  # here, so that `import ergclt` loads no scipy

    if t <= 0:
        raise ValueError("need t > 0")
    comps = [(float(w), float(v)) for (w, v) in components]
    if any(w < 0 for w, _ in comps):
        raise ValueError("weights must be nonnegative")
    if abs(sum(w for w, _ in comps) - 1.0) > 1e-9:
        raise ValueError("weights must sum to one")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, v in comps:
        if v * t <= 0:
            out += w * (x >= 0)
        else:
            out += w * ndtr(x / math.sqrt(v * t))
    return out


def limit_law_check(sample: CltSample, profile: VarianceProfile) -> list[GofReport]:
    """KS reports of the marginals at each grid time t > 0.  The targets are
    the mixture law over all paths, then each component's normal law (a
    one-term mixture) over the paths started in it, if they are two or more.
    Each component's mixture weight is the share of initial points in it."""
    inits = sample.inits
    assigned = np.zeros(len(inits), dtype=bool)
    masks = []
    for supports, _ in profile.components:
        m = ~assigned & np.any([(inits >= lo) & (inits <= hi) for (lo, hi) in supports], axis=0)
        assigned |= m  # points on shared boundaries count once, for the first component
        masks.append(m)
    if not np.all(assigned):
        raise ValueError("some initial points lie in no component")
    mixture = profile.mixture([float(m.mean()) for m in masks])
    # (rows of sample.paths, law as (weight, variance) pairs, target, note when degenerate)
    targets = [(slice(None), mixture, {"mixture": mixture}, "degenerate limit: KS skipped")]
    targets += [(m, [(1.0, v)], {"component": [list(s) for s in supports], "sigma2": v},
                 "degenerate component: KS skipped")
                for m, (supports, v) in zip(masks, profile.components) if np.count_nonzero(m) >= 2]

    reports = []
    for col, t in enumerate(sample.t_grid.tolist()):
        if t <= 0:
            continue
        for rows, law, target, degenerate in targets:
            vals = sample.paths[rows, col]
            if all(v * t == 0 for _, v in law):
                reports.append(GofReport(0.0, len(vals), target, t, note=degenerate))
            else:
                reports.append(ks_statistic(vals, lambda x: mixture_normal_cdf(law, t, x), target=target, t=t))
    return reports


# ----------------------------------------------------------------------
# maximal inequality
# ----------------------------------------------------------------------

@dataclass
class MaximalInequalityReport:
    """Monte Carlo L2 norm of the running-maximum partial sum against the
    exact transfer-side bound sqrt(n) (3 ||f - U P f||_2 + 4 sqrt(2) Delta_q)."""

    n: int
    q: int
    lhs: float
    lhs_stderr: float
    rhs: float
    martingale_norm: float
    delta_q: float
    margin_sigmas: float
    holds: bool
    trials: int


def dyadic_block_norms(f: Observable, transfer_action: NormalizedTransfer, q: int) -> list[float]:
    """L2(nu) norms of sum_{k=1..2^j} P_T^k f for j = 0..q-1: `clt.partial_sum_norms` at ends 2^j."""
    return list(partial_sum_norms(f, transfer_action, [2**j for j in range(q)], lag0=False))


def maximal_inequality_sweep(map_: PiecewiseLinearMap, f: Observable,
                             transfer_action: NormalizedTransfer,
                             nu: PiecewiseAffineFunction, ns, trials: int,
                             seed: int) -> list[MaximalInequalityReport]:
    """Empirically check ||max_k |S_k|||_2 against the dyadic transfer bound
    at each horizon n in ns.

    The left side is estimated from `trials` stationary orbits; the right
    side is computed exactly in the piecewise algebra.  All horizons share
    one pass of block norms, one running dyadic sum (Delta_q for each q is a
    prefix of it) and one orbit batch of length max(ns).  An absolute slack
    of 1e-10 absorbs floating-point dust when f vanishes a.e. on the
    invariant support and both sides are rounding noise.  ns must hold at
    least one horizon and trials be at least 2, for a standard error.
    """
    ns = sorted(int(n) for n in ns)
    if not ns or ns[0] < 1:
        raise ValueError("need at least one horizon, each n >= 1")
    if trials < 2:
        raise ValueError("need trials >= 2 for a standard error")
    f.check_centered(nu)
    q_max = ns[-1].bit_length()
    deltas = dyadic_sum(dyadic_block_norms(f, transfer_action, q_max))
    ptf = transfer_action(f.f)
    mart = (f.f - koopman(map_, ptf)).norm_l2(transfer_action.gstar)

    inits = sample_from_density(nu, trials, seed)
    orbit = _orbit(map_, f.f, inits, seed, ns[-1])
    s = np.zeros(trials)
    m = np.zeros(trials)
    reports = []
    for done, n in zip([0, *ns], ns):
        for value in itertools.islice(orbit, n - done):
            s += value
            np.maximum(m, np.abs(s), out=m)
        q = n.bit_length()  # floor(log2(n)) + 1, so 2^(q-1) <= n < 2^q
        delta_q = deltas[q - 1]
        rhs = math.sqrt(n) * (3.0 * mart + 4.0 * math.sqrt(2.0) * delta_q)
        msq = m * m
        mean_msq = float(msq.mean())
        lhs = math.sqrt(mean_msq)
        se_msq = float(msq.std(ddof=1)) / math.sqrt(trials)
        lhs_stderr = se_msq / (2.0 * lhs) if lhs > 0 else 0.0
        margin = (rhs - lhs) / lhs_stderr if lhs_stderr > 0 else math.inf
        reports.append(MaximalInequalityReport(
            n=n, q=q, lhs=lhs, lhs_stderr=lhs_stderr, rhs=rhs,
            martingale_norm=mart, delta_q=delta_q, margin_sigmas=margin,
            holds=bool(lhs <= rhs + 3.0 * lhs_stderr + 1e-10), trials=trials,
        ))
    return reports

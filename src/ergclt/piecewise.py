"""Exact algebra of piecewise-affine functions on an interval.

Functions are represented by a strictly increasing breakpoint grid plus a
(slope, intercept) pair per cell.  Cells are half-open ``[b_i, b_{i+1})``,
the last one closed; points outside the span evaluate to 0.  Every
operation needed downstream (sums, affine composition, products against
step functions, definite integrals of products of up to three factors) has
a closed form, so no quadrature error enters the transfer-operator
diagnostics.
"""

from __future__ import annotations

import numpy as np

# Breakpoints closer than this (relative to the span scale) are merged.
_BP_EPS = 1e-14

# `pruned()` merges adjacent cells whose slopes and intercepts agree to
# within this absolute tolerance.
PRUNE_ABS = 1e-13

# Step weights at or below this value count as zero: the reciprocal is set
# to 0 there.
DENSITY_FLOOR = 1e-12

# A mean or a mass counts as exact within this: |∫ h dν| of a centered
# observable, |∫ g − 1| of an assembled density.
MEASURE_TOL = 1e-9

# Bound on representation size; an operation that would exceed it raises
# PieceBudgetExceeded instead of allocating the result.
MAX_PIECES = 10**6


class PieceBudgetExceeded(RuntimeError):
    """Raised when an exact operation would exceed MAX_PIECES cells."""


def _check_budget(pieces: int):
    if pieces > MAX_PIECES:
        raise PieceBudgetExceeded(f"{pieces} pieces exceed the budget of {MAX_PIECES}")


def _dedupe_breakpoints(bp: np.ndarray) -> np.ndarray:
    scale = max(1.0, abs(bp[0]), abs(bp[-1]))
    keep = np.empty(len(bp), dtype=bool)
    keep[0] = True
    keep[1:] = bp[1:] - bp[:-1] > _BP_EPS * scale
    out = bp[keep]
    if len(out) < 2 or out[-1] < bp[-1]:
        out = np.concatenate((out[:-1] if len(out) >= 2 and bp[-1] - out[-1] <= _BP_EPS * scale else out, bp[-1:]))
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Σ a_i b_i in numpy's own loop, not BLAS: the bits do not depend on the
    BLAS thread count, and no BLAS worker thread is woken."""
    return float(np.einsum("i,i->", a, b))


def _sorted_union(grids) -> np.ndarray:
    """np.unique of the concatenated grids by its own steps: sort, drop repeats."""
    pts = np.concatenate(grids)
    pts.sort()
    keep = np.empty(len(pts), dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def _cells_covered(bp: np.ndarray, mids: np.ndarray):
    """Where the pieces on grid `bp` fall among the sorted midpoints of a finer grid.

    Returns (cells, counts): `cells` slices the midpoints inside the span
    and `counts[k]` of them lie in piece k, in order.  Each breakpoint is
    placed among the midpoints, O(pieces log cells); a midpoint on a
    breakpoint belongs to the piece to its right, one on the last
    breakpoint to the last piece, as in `cell_index`.
    """
    edges = mids.searchsorted(bp)
    edges[-1] = mids.searchsorted(bp[-1], side="right")
    return slice(edges[0], edges[-1]), edges[1:] - edges[:-1]


def _cell_index(bp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the cell of grid bp containing each x, clamped to the end cells."""
    idx = bp.searchsorted(x, side="right") - 1
    return np.minimum(np.maximum(idx, 0, out=idx), len(bp) - 2, out=idx)


def _pruned(bp: np.ndarray, sl: np.ndarray | None, ic: np.ndarray):
    """(bp, sl, ic) with adjacent cells merged where slopes and intercepts
    agree within PRUNE_ABS, the same arrays if none do.  sl None stands for
    all-zero slopes (a step's), which always agree."""
    same = abs(ic[1:] - ic[:-1]) <= PRUNE_ABS
    if sl is not None:
        same &= abs(sl[1:] - sl[:-1]) <= PRUNE_ABS
    if not np.count_nonzero(same):
        return bp, sl, ic
    keep = np.empty(len(bp), dtype=bool)  # the breakpoints kept; keep[:-1], the cells
    keep[0] = keep[-1] = True
    np.logical_not(same, out=keep[1:-1])
    return bp[keep], None if sl is None else sl[keep[:-1]], ic[keep[:-1]]


class PiecewiseAffineFunction:
    """A function that is affine on each cell of a breakpoint grid."""

    __slots__ = ("breakpoints", "slopes", "intercepts")

    def __init__(self, breakpoints, slopes, intercepts, validate: bool = True):
        bp = np.asarray(breakpoints, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        ic = np.asarray(intercepts, dtype=float)
        if validate:
            if bp.ndim != 1 or len(bp) < 2:
                raise ValueError("need at least two breakpoints")
            if np.any(np.diff(bp) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if sl.shape != (len(bp) - 1,) or ic.shape != (len(bp) - 1,):
                raise ValueError("need one (slope, intercept) pair per cell")
        self.breakpoints = bp
        self.slopes = sl
        self.intercepts = ic

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, lo: float, hi: float, value: float) -> "PiecewiseAffineFunction":
        return cls(np.array([lo, hi]), np.array([0.0]), np.array([float(value)]), validate=False)

    @classmethod
    def affine(cls, lo: float, hi: float, slope: float, intercept: float) -> "PiecewiseAffineFunction":
        return cls(np.array([lo, hi]), np.array([float(slope)]), np.array([float(intercept)]), validate=False)

    @classmethod
    def step(cls, breakpoints, values) -> "PiecewiseAffineFunction":
        bp = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        return cls(bp, np.zeros(len(v)), v)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def lo(self) -> float:
        return float(self.breakpoints[0])

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def num_pieces(self) -> int:
        return len(self.slopes)

    def is_step(self) -> bool:
        """True if every slope is ±0.0.  A function that fails is rejected by
        `scale_by_step`, `reciprocal_step` and `NormalizedTransfer`, not read
        as a step."""
        return not self.slopes.any()

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        """Index of the cell containing each x (x must lie in the span)."""
        return _cell_index(self.breakpoints, x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        idx = self.cell_index(xv)
        out = self.slopes[idx] * xv + self.intercepts[idx]
        out[(xv < self.breakpoints[0]) | (xv > self.breakpoints[-1])] = 0.0
        return float(out[0]) if scalar else out

    def piece_values(self) -> np.ndarray:
        """Values at cell midpoints."""
        bp = self.breakpoints
        return self.slopes * (0.5 * (bp[:-1] + bp[1:])) + self.intercepts

    def sup_norm(self) -> float:
        """max |f| over the span (attained at cell edges for affine pieces)."""
        left = self.slopes * self.breakpoints[:-1] + self.intercepts
        right = self.slopes * self.breakpoints[1:] + self.intercepts
        return float(max(np.abs(left).max(), np.abs(right).max()))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coeffs_on(self, mids: np.ndarray):
        """(slope, intercept) arrays of self on the cells of a grid, given by
        their sorted midpoints; 0 on cells outside the span."""
        cells, counts = _cells_covered(self.breakpoints, mids)
        sl = np.zeros(len(mids))
        ic = np.zeros(len(mids))
        sl[cells] = self.slopes.repeat(counts)
        ic[cells] = self.intercepts.repeat(counts)
        return sl, ic

    def __mul__(self, c: float) -> "PiecewiseAffineFunction":
        c = float(c)
        return PiecewiseAffineFunction(self.breakpoints, self.slopes * c, self.intercepts * c, validate=False)

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseAffineFunction":
        return self * -1.0

    def __add__(self, other: "PiecewiseAffineFunction") -> "PiecewiseAffineFunction":
        return pw_sum([self, other])

    def __sub__(self, other: "PiecewiseAffineFunction") -> "PiecewiseAffineFunction":
        return pw_sum([self, -other])

    def scale_by_step(self, weight: "PiecewiseAffineFunction") -> "PiecewiseAffineFunction":
        """Exact product with a step function (result stays piecewise affine)."""
        if not weight.is_step():
            raise ValueError("scale_by_step requires a step function")
        grid = merge_grids([self, weight])
        mids = 0.5 * (grid[:-1] + grid[1:])
        sl, ic = self._coeffs_on(mids)
        w = weight._coeffs_on(mids)[1]
        return PiecewiseAffineFunction(grid, sl * w, ic * w, validate=False)

    def reciprocal_step(self) -> "PiecewiseAffineFunction":
        """1/f for a step function f, zero where f <= DENSITY_FLOOR."""
        if not self.is_step():
            raise ValueError("reciprocal_step requires a step function")
        v = self.intercepts
        ok = v > DENSITY_FLOOR
        return PiecewiseAffineFunction(
            self.breakpoints, np.zeros_like(v), np.where(ok, 1.0 / np.where(ok, v, 1.0), 0.0), validate=False
        )

    def windowed_union(self, intervals) -> "PiecewiseAffineFunction":
        """Multiply by the indicator of a union of intervals; the span is unchanged."""
        ends = np.clip(np.array([p for (a, b) in intervals for p in (a, b)], dtype=float), self.lo, self.hi)
        grid = _dedupe_breakpoints(_sorted_union([self.breakpoints, ends]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        sl, ic = self._coeffs_on(mids)
        keep = np.zeros(len(mids), dtype=bool)
        for (a, b) in intervals:
            keep |= (mids > a) & (mids < b)
        return PiecewiseAffineFunction(grid, np.where(keep, sl, 0.0), np.where(keep, ic, 0.0), validate=False)

    def pruned(self) -> "PiecewiseAffineFunction":
        """Merge adjacent cells whose affine parameters agree within PRUNE_ABS."""
        bp, sl, ic = _pruned(self.breakpoints, self.slopes, self.intercepts)
        return self if bp is self.breakpoints else PiecewiseAffineFunction(bp, sl, ic, validate=False)

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def integral(self, lo: float | None = None, hi: float | None = None) -> float:
        return integrate_product([self], lo, hi)

    def norm_l1(self, weight: "PiecewiseAffineFunction | None" = None) -> float:
        """∫ |f| w dx; |f| is split exactly at interior zero crossings.

        Unweighted, with no crossing and a grid that merging leaves as it is,
        this is the `_dot` of the cell widths with |f| at the midpoints: the
        bits of `integrate_product([f.abs()])` from fewer numpy calls."""
        bp = self.breakpoints
        w = bp[1:] - bp[:-1]
        if weight is None and w.min() > _BP_EPS * max(1.0, abs(bp[0]), abs(bp[-1])) and not self._crossings().any():
            return _dot(w, abs(self.slopes * (0.5 * (bp[:-1] + bp[1:])) + self.intercepts))
        return integrate_product([self.abs()] if weight is None else [self.abs(), weight])

    def norm_l2(self, weight: "PiecewiseAffineFunction | None" = None) -> float:
        fns = [self, self] if weight is None else [self, self, weight]
        return float(np.sqrt(max(integrate_product(fns), 0.0)))

    def _crossings(self) -> np.ndarray:
        """Mask of the cells where f changes sign strictly inside."""
        left = self.slopes * self.breakpoints[:-1] + self.intercepts
        right = self.slopes * self.breakpoints[1:] + self.intercepts
        return (left * right < 0) & (self.slopes != 0)

    def abs(self) -> "PiecewiseAffineFunction":
        """Exact |f|: inserts breakpoints at interior sign changes."""
        cross = self._crossings()
        roots = -self.intercepts[cross] / self.slopes[cross]
        grid = _dedupe_breakpoints(_sorted_union([self.breakpoints, roots]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        sl, ic = self._coeffs_on(mids)
        neg = sl * mids + ic < 0
        return PiecewiseAffineFunction(grid, np.where(neg, -sl, sl), np.where(neg, -ic, ic), validate=False)


def merge_grids(fns, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Common refined breakpoint grid of several functions, clipped to [lo, hi]."""
    grid = _sorted_union([f.breakpoints for f in fns])
    if lo is not None or hi is not None:
        a = grid[0] if lo is None else lo
        b = grid[-1] if hi is None else hi
        if a >= b:
            raise ValueError("empty integration interval")
        grid = np.concatenate(([a], grid[(grid > a) & (grid < b)], [b]))
    return _dedupe_breakpoints(grid)


def pw_sum(fns) -> PiecewiseAffineFunction:
    """Exact sum of several piecewise-affine functions on the union span.

    Summands are added in order, each only on the merged cells its span
    covers; the rest of the union span adds nothing, which leaves the same
    bits as adding zero to a sum that starts at +0.0.
    """
    grid = _dedupe_breakpoints(_sorted_union([f.breakpoints for f in fns]))
    _check_budget(len(grid) - 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    sl = np.zeros(len(mids))
    ic = np.zeros(len(mids))
    for f in fns:
        cells, counts = _cells_covered(f.breakpoints, mids)
        sl[cells] += f.slopes.repeat(counts)
        ic[cells] += f.intercepts.repeat(counts)
    return PiecewiseAffineFunction(grid, sl, ic, validate=False)


def integrate_product(fns, lo: float | None = None, hi: float | None = None) -> float:
    """Exact ∫ f1*f2*f3 dx over [lo, hi] for up to three piecewise-affine factors.

    Each factor is affine per cell of the merged grid, so the integrand is a
    polynomial of degree <= 3 per cell; odd powers of the centered coordinate
    integrate to zero, which keeps the closed forms short and stable.  The
    cells are summed by `_dot`, so the bits do not depend on the BLAS thread
    count.
    """
    if not 1 <= len(fns) <= 3:
        raise ValueError("supports products of one to three factors")
    span_lo = max(f.lo for f in fns) if lo is None else lo
    span_hi = min(f.hi for f in fns) if hi is None else hi
    if span_hi <= span_lo:
        return 0.0
    grid = merge_grids(fns, span_lo, span_hi)
    w = grid[1:] - grid[:-1]
    mids = 0.5 * (grid[:-1] + grid[1:])
    vals = []
    slps = []
    for f in fns:
        s, c = f._coeffs_on(mids)
        vals.append(s * mids + c)
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

"""Piecewise-linear interval maps and tent-map structure.

Branch selection uses half-open pieces ``[lo, hi)`` with the final piece
closed; the maps in scope are continuous so the convention only fixes
behaviour on a null set.  Branches are found with `cut_index`, which counts
the cuts at or below a point; the orbit engines count the map's inner edges
and the observable's breakpoints together, as one merged set of cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)


def cut_index(cuts, v: np.ndarray) -> np.ndarray:
    """The number of entries of the sorted `cuts` at or below each entry of
    v, as an intp array: the index of v's piece when the cuts are a grid's
    inner breakpoints.  It takes one vectorized comparison and one add per
    cut, O(len(cuts)) per entry and no binary search.  v and cuts are floats
    or 64-bit words alike; NaN counts no cut.  The orbit engines call it
    only for their cell tables (`simulate._merged_cells`); per path-step the
    float engine counts the same way into reused buffers, and the bit engine
    reads the count from a bucket table (`simulate._word_cells`)."""
    count = np.zeros(v.shape, dtype=np.min_scalar_type(len(cuts)))
    at_or_above = np.empty(v.shape, dtype=bool)
    for c in cuts:
        np.greater_equal(v, c, out=at_or_above)
        np.add(count, at_or_above.view(np.uint8), out=count)
    return count.astype(np.intp)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def intersects(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo < other.hi - tol and other.lo < self.hi - tol


@dataclass(frozen=True)
class AffineMap:
    """x -> slope*x + intercept."""

    slope: float
    intercept: float

    def __call__(self, x):
        return self.slope * x + self.intercept

    def inverted(self) -> "AffineMap":
        if self.slope == 0.0:
            raise ValueError("constant map has no inverse")
        return AffineMap(1.0 / self.slope, -self.intercept / self.slope)


class PiecewiseLinearMap:
    """Finitely many affine branches tiling an interval."""

    def __init__(self, domain: Interval, branches):
        self.domain = domain
        self.branches = [(Interval(p.lo, p.hi) if isinstance(p, Interval) else Interval(*p), float(s), float(c))
                         for (p, s, c) in branches]
        self._validate()
        self._inner_edges = np.array([piece.hi for (piece, _, _) in self.branches[:-1]])
        self._slopes = np.array([s for (_, s, _) in self.branches])
        self._intercepts = np.array([c for (_, _, c) in self.branches])
        # The branch tables of the push and the composition, and the
        # geometry of recent transfer pushes, by input grid; kept and read
        # by `transfer`.
        self.branch_tables: dict = {}
        self.push_plans: dict = {}

    def _validate(self):
        tol = 1e-12
        prev = self.domain.lo
        for i, (piece, s, c) in enumerate(self.branches):
            if abs(piece.lo - prev) > tol:
                raise ValueError("branch pieces must tile the domain without gaps")
            # Close a gap or overlap within tol: each piece starts exactly where
            # the one before it (or the domain) ends, so branch grids meet.
            piece = Interval(prev, piece.hi)
            self.branches[i] = (piece, s, c)
            prev = piece.hi
            if s == 0.0:
                raise ValueError(f"flat branch on [{piece.lo}, {piece.hi}]: the transfer operator is undefined")
            for x in (piece.lo, piece.hi):
                y = s * x + c
                if not self.domain.contains(y, tol=1e-9):
                    raise ValueError(f"branch image leaves the domain at x={x}: {y}")
        if abs(prev - self.domain.hi) > tol:
            raise ValueError("branch pieces must cover the domain")

    def branch_index(self, x: np.ndarray) -> np.ndarray:
        """Branch of each point: the inner edges at or below it, so points
        past either end of the domain take the end branch."""
        return cut_index(self._inner_edges, x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all((self.domain.lo <= x) & (x <= self.domain.hi)):
            raise ValueError("point outside the map domain (or NaN)")
        out = self.step(np.atleast_1d(x))
        return float(out[0]) if x.ndim == 0 else out

    def step(self, x: np.ndarray) -> np.ndarray:
        """Vectorized map application without domain checks, clamped to the domain."""
        idx = self.branch_index(x)
        out = self._slopes.take(idx) * x + self._intercepts.take(idx)
        np.maximum(out, self.domain.lo, out=out)
        return np.minimum(out, self.domain.hi, out=out)

    def image_of(self, iv: Interval) -> Interval:
        """Exact image interval of iv (evaluates endpoints and interior kinks)."""
        pts = [iv.lo, iv.hi]
        pts += [e for e in self._inner_edges if iv.lo < e < iv.hi]
        vals = [self(p) for p in pts]
        return Interval(min(vals), max(vals))


def tent_map(a: float) -> PiecewiseLinearMap:
    """The symmetric tent x -> a - 1 - a|x| on [-1, 1], slope parameter in (1, 2]."""
    _check_tent_param(a)
    dom = Interval(-1.0, 1.0)
    return PiecewiseLinearMap(dom, [
        (Interval(-1.0, 0.0), a, a - 1.0),
        (Interval(0.0, 1.0), -a, a - 1.0),
    ])


def three_branch_map() -> PiecewiseLinearMap:
    """Slope-2 map on [0,1] that leaves both halves invariant (non-ergodic)."""
    dom = Interval(0.0, 1.0)
    return PiecewiseLinearMap(dom, [
        (Interval(0.0, 0.25), 2.0, 0.0),
        (Interval(0.25, 0.75), 2.0, -0.5),
        (Interval(0.75, 1.0), 2.0, -1.0),
    ])


def _check_tent_param(a: float):
    if not 1.0 < a <= 2.0:
        raise ValueError(f"tent parameter must lie in (1, 2], got {a}")
    if a <= 1.0 + 1e-6:
        raise ValueError(f"tent parameter {a} too close to 1 for stable classification")


def tent_fixed_point(a: float) -> float:
    """The positive fixed point (a-1)/(a+1) of the tent map."""
    return (a - 1.0) / (a + 1.0)


def squared_param(a: float) -> float:
    """a**2 clamped to the parameter window (a = sqrt(2) squares to 2 + 2ulp)."""
    sq = a * a
    if sq > 2.0:
        if sq > 2.0 + 1e-9:
            raise ValueError(f"squared parameter {sq} leaves (1, 2]")
        sq = 2.0
    return sq


def tent_period(a: float) -> int:
    """Cycle length 2^m of the tent-map support, from the parameter window.

    The window exponent is the unique m with 2^(1/2^(m+1)) < a <= 2^(1/2^m);
    classification is by the closed-right window formula, not by numerics.
    """
    _check_tent_param(a)
    m = 0
    while a <= 2.0 ** (1.0 / 2.0 ** (m + 1)):
        m += 1
    return 2**m


def tent_window_exponent(a: float) -> int:
    return int(round(math.log2(tent_period(a))))


def tent_conjugacy(a: float, i: int) -> tuple[AffineMap, AffineMap]:
    """The pair (phi, phi^{-1}) conjugating the second-iterate tent to the
    slope-a^2 tent, on the right (i=0) or central (i=1) invariant interval.

    Only defined for a <= sqrt(2), where the second iterate decouples.
    """
    _check_tent_param(a)
    if a > SQRT2 + 1e-12:
        raise ValueError(f"conjugacy requires a <= sqrt(2), got {a}")
    if i not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    xs = tent_fixed_point(a)
    if i == 1:
        fwd = AffineMap(-1.0 / xs, 0.0)
    else:
        fwd = AffineMap(a / xs, -a - 1.0)
    return fwd, fwd.inverted()


@dataclass(frozen=True)
class SupportCycle:
    """An ergodic component: disjoint intervals the map permutes cyclically,
    in cycle order (for the tent map, the 2^m intervals of its support)."""

    intervals: tuple
    period: int

    def __post_init__(self):
        if len(self.intervals) != self.period:
            raise ValueError("cycle length mismatch")
        for j, a in enumerate(self.intervals):
            for b in self.intervals[j + 1:]:
                if a.intersects(b, tol=1e-12):
                    raise ValueError("cycle intervals overlap")

    def as_pairs(self) -> tuple:
        """The intervals as (lo, hi) float pairs, in cycle order."""
        return tuple((iv.lo, iv.hi) for iv in self.intervals)


def _tent_core_interval(a: float) -> Interval:
    """[T_a^2(0), T_a(0)], the forward-invariant interval carrying the density."""
    t0 = a - 1.0
    t20 = a - 1.0 - a * t0
    return Interval(t20, t0)


# Past window 8 (a <= 2^(1/512)) cycle intervals are narrower than one ulp.
TENT_DEEPEST_WINDOW = 8


@lru_cache(maxsize=64)
def tent_support_cycle(a: float) -> SupportCycle:
    """Construct the support cycle from the binary-indexed inverse conjugacies.

    Interval j = 1 + i_1 + 2 i_2 + ... + 2^(m-1) i_m is the image of the core
    interval of the 2^m-fold parameter under phi_{i_1,a}^{-1} ∘ phi_{i_2,a^2}^{-1}
    ∘ ... ; the cyclic ordering is verified numerically against the dynamics.
    """
    m = tent_window_exponent(a)
    r = 2**m
    if m == 0:
        cycle = SupportCycle(intervals=(_tent_core_interval(a),), period=1)
    else:
        top = a ** (2**m)
        base = _tent_core_interval(top)
        intervals = []
        for j in range(r):
            bits = [(j >> k) & 1 for k in range(m)]  # i_1 ... i_m
            lo, hi = base.lo, base.hi
            # apply phi_{i_m, a^{2^{m-1}}}^{-1} first, phi_{i_1, a}^{-1} last
            for k in reversed(range(m)):
                _, inv = tent_conjugacy(a ** (2**k), bits[k])
                p, q = inv(lo), inv(hi)
                lo, hi = min(p, q), max(p, q)
            intervals.append(Interval(lo, hi))
        cycle = SupportCycle(intervals=tuple(intervals), period=r)
    _verify_cycle(tent_map(a), cycle)
    return cycle


def _verify_cycle(map_: PiecewiseLinearMap, cycle: SupportCycle):
    tol = 1e-10
    for j, iv in enumerate(cycle.intervals):
        nxt = cycle.intervals[(j + 1) % cycle.period]
        img = map_.image_of(iv)
        if abs(img.lo - nxt.lo) > tol or abs(img.hi - nxt.hi) > tol:
            raise ValueError(
                f"support cycle is not cyclically permuted: interval {j} maps to "
                f"[{img.lo}, {img.hi}], expected [{nxt.lo}, {nxt.hi}]"
            )

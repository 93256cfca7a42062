"""An exact-rational oracle for the piecewise-affine algebra.  Its arithmetic
is the stdlib's `fractions`; from `ergclt` it takes PRUNE_ABS and the
iterates that `assert_iterates_within_bound` checks.

`Exact` is a piecewise-affine function with `fractions.Fraction`
breakpoints and coefficients, read as 0 off its span, and `exact(f)`
converts a float function without rounding.  The transfer operators act on
it exactly under a map whose branch data are `Fraction(float)`: `push` is
the Perron-Frobenius operator, with the true image ends and inverse
branches, and `compose` is f o T.  `integral` integrates a product of up to
three factors, and `l1_distance` is the exact ∫|f - e| of a float function
against an exact one.

The float algebra rounds its breakpoints and coefficients, merges points
closer than `_BP_EPS` times the scale and prunes cells that agree within
PRUNE_ABS; `bound` is the L1 error the tests allow it for that.
"""

import heapq
import itertools
import math
from bisect import bisect_right
from fractions import Fraction

from ergclt.piecewise import PRUNE_ABS, PiecewiseAffineFunction
from ergclt.transfer import NormalizedTransfer

# The constant of `bound`.  It was fixed before the push and the composition
# had one plan construction, from the two they had: the worst ratio seen
# over 1,000 derandomized grids (near twins, STEEP_MAP) was 474, a
# composition built branch by branch with a twin 1.4e-14 wide.
C = 1024

ULP = 2.0**-52

# The exact iterates stop growing past this many pieces, which keeps the
# Fraction arithmetic within a few milliseconds per step.
MAX_EXACT_PIECES = 200


class Exact:
    """A piecewise-affine function: breakpoints `bp`, one (slope, intercept)
    pair per cell in `sl` and `ic`, all Fractions.  Cells are [bp[i],
    bp[i+1]); off [bp[0], bp[-1]] the function is 0."""

    __slots__ = ("bp", "sl", "ic")

    def __init__(self, bp, sl, ic):
        self.bp, self.sl, self.ic = bp, sl, ic

    @property
    def num_pieces(self) -> int:
        return len(self.sl)


def exact(f) -> Exact:
    """The float function f (a `PiecewiseAffineFunction`) as Fractions, exactly."""
    return Exact(*([Fraction(float(x)) for x in xs] for xs in (f.breakpoints, f.slopes, f.intercepts)))


ZERO = (Fraction(0), Fraction(0))


def _cells(fns, lo, hi):
    """(a, b, [(slope, intercept) of each of fns on [a, b)]) for the cells of
    the union of their grids inside [lo, hi], in order; (0, 0) off a span.
    Each function's cell is found by walking its grid along."""
    pts = [lo]
    for x in heapq.merge(*(f.bp for f in fns)):
        if lo < x < hi and x != pts[-1]:
            pts.append(x)
    pts.append(hi)
    at = [0] * len(fns)
    for (a, b) in zip(pts, pts[1:]):
        coeffs = []
        for (i, f) in enumerate(fns):
            if a < f.bp[0] or b > f.bp[-1]:
                coeffs.append(ZERO)
                continue
            while f.bp[at[i] + 1] <= a:
                at[i] += 1
            coeffs.append((f.sl[at[i]], f.ic[at[i]]))
        yield a, b, coeffs


def _sum(parts, weights) -> Exact:
    """Σ w * part over the union of their spans, each part 0 off its own;
    neighbouring cells with equal coefficients are joined."""
    lo, hi = min(p.bp[0] for p in parts), max(p.bp[-1] for p in parts)
    bp, sl, ic = [lo], [], []
    for (_, b, coeffs) in _cells(parts, lo, hi):
        s = sum(w * ps for (w, (ps, _)) in zip(weights, coeffs))
        c = sum(w * pc for (w, (_, pc)) in zip(weights, coeffs))
        if sl and sl[-1] == s and ic[-1] == c:
            bp[-1] = b
        else:
            bp.append(b)
            sl.append(s)
            ic.append(c)
    return Exact(bp, sl, ic)


def _through(e: Exact, s, c, lo, hi, k) -> Exact:
    """x -> k * e(s*x + c) on [lo, hi], s != 0."""
    pre = [((y - c) / s, j) for (j, y) in enumerate(e.bp)]
    if s < 0:
        pre.reverse()
    inner = [(x, j) for (x, j) in pre if lo < x < hi]
    # Just right of the preimage of e.bp[j], x reads e's cell j going up and
    # cell j - 1 going down; just left of it, the other one.
    if inner:
        j = inner[0][1]
        cells = [j - 1 if s > 0 else j] + [j if s > 0 else j - 1 for (_, j) in inner]
    else:
        y = s * (lo + hi) / 2 + c
        cells = [bisect_right(e.bp, y) - 1 if e.bp[0] <= y <= e.bp[-1] else -1]
    sl, ic = [], []
    for i in cells:
        es, ec = (e.sl[i], e.ic[i]) if 0 <= i < e.num_pieces else ZERO
        sl.append(k * es * s)
        ic.append(k * (es * c + ec))
    return Exact([lo, *(x for (x, _) in inner), hi], sl, ic)


def _branches(map_):
    """(lo, hi, slope, intercept) per branch of a `PiecewiseLinearMap`, as Fractions."""
    return [(Fraction(p.lo), Fraction(p.hi), Fraction(s), Fraction(c)) for (p, s, c) in map_.branches]


def push(map_, e: Exact) -> Exact:
    """The Perron-Frobenius operator: Σ over branches of e(inverse branch) /
    |slope| on the branch image."""
    parts = []
    for (lo, hi, s, c) in _branches(map_):
        a, b = sorted((s * lo + c, s * hi + c))
        parts.append(_through(e, 1 / s, -c / s, a, b, 1 / abs(s)))
    return _sum(parts, [1] * len(parts))


def compose(map_, e: Exact) -> Exact:
    """e o T, each branch over its own piece."""
    parts = [_through(e, s, c, lo, hi, 1) for (lo, hi, s, c) in _branches(map_)]
    return _sum(parts, [1] * len(parts))


def integral(fns, lo=None, hi=None) -> Fraction:
    """∫ Π fns over [lo, hi] (default: the intersection of their spans) for
    one to three exact factors: Simpson's rule, exact for the cubic that
    the product is on each cell."""
    lo = max(f.bp[0] for f in fns) if lo is None else lo
    hi = min(f.bp[-1] for f in fns) if hi is None else hi
    if hi <= lo:
        return Fraction(0)
    total = Fraction(0)
    for (a, b, coeffs) in _cells(fns, lo, hi):
        at = [math.prod(s * x + c for (s, c) in coeffs) for x in (a, (a + b) / 2, b)]
        total += (b - a) * (at[0] + 4 * at[1] + at[2]) / 6
    return total


def l1_norm(e: Exact) -> Fraction:
    """∫|e|, each cell split at its root."""
    total = Fraction(0)
    for (a, b, s, c) in zip(e.bp, e.bp[1:], e.sl, e.ic):
        va, vb = s * a + c, s * b + c
        if va * vb >= 0:
            total += abs(va + vb) * (b - a) / 2
        else:
            total += (va * va + vb * vb) * (b - a) / (2 * (abs(va) + abs(vb)))
    return total


def l1_distance(f, e: Exact) -> float:
    """∫|f - e| over the union of their spans, exactly, for a float function f."""
    return float(l1_norm(_sum([exact(f), e], [1, -1])))


def bound(steps: int, sup: float, width: float, prunes: int = 0) -> float:
    """The L1 error allowed after `steps` float operations on functions up to
    `sup` in absolute value, over a domain of length `width`, and `prunes`
    prunes: C * steps * 2^-52 * sup * width, plus PRUNE_ABS * width per
    prune, because the prune tolerance is absolute."""
    return C * steps * ULP * sup * width + prunes * PRUNE_ABS * width


def width(map_) -> float:
    return map_.domain.hi - map_.domain.lo


def assert_iterates_within_bound(map_, f, step: int, lags: int = 8):
    """The first `lags` terms of `NormalizedTransfer.iterates(f, step)` at
    density 1, each iterate and its L1 norm, are within `bound` of the exact
    push^(lag*step) of f, after step pushes and step + 1 prunes per lag,
    while the exact iterate has at most MAX_EXACT_PIECES pieces."""
    nt = NormalizedTransfer(map_, PiecewiseAffineFunction.constant(map_.domain.lo, map_.domain.hi, 1.0))
    e = exact(f)
    sup = f.sup_norm()
    for (lag, (v, l1)) in enumerate(itertools.islice(nt.iterates(f, step), lags), 1):
        for _ in range(step):
            e = push(map_, e)
        if e.num_pieces > MAX_EXACT_PIECES:
            break
        sup = max(sup, v.sup_norm())
        allowed = bound(lag * step, sup, width(map_), prunes=lag * (step + 1))
        assert l1_distance(v, e) <= allowed
        assert abs(l1 - float(l1_norm(e))) <= allowed

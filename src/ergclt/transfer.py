"""Exact transfer-operator actions: the Perron-Frobenius and Koopman
operators and the transfer normalized by an invariant density.  Turning
their iterates into variances and diagnostics is the job of `clt`.

All operators act on the piecewise-affine algebra, so pushing a density
forward, composing with the map, and integrating against an invariant
density are free of quadrature error.  Iterates of the normalized operator
telescope through the reference-measure operator (P_T^n f = P^n(f g)/g),
which keeps the piece count growing linearly instead of geometrically and
defers the division by g to the final quadrature.

The push and its dual, the composition f -> f o T, are each a plan and
an apply.  The plan (`_branch_plan`) is the geometry, read off the map and
f's breakpoints only; the apply (`_apply`) is the arithmetic on f's slopes
and intercepts.  Iterates soon repeat their grids, so each map keeps the
push plans of the last PUSH_PLANS_KEPT grids, keyed by the exact bytes of
the breakpoints; a push of a grid seen before does only the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .maps import PiecewiseLinearMap
from .piecewise import (_BP_EPS, PiecewiseAffineFunction, _check_budget, _dedupe_breakpoints, _preimage_cells,
                        _sorted_union)

# An iterate whose L1 norm is at most this fraction of its start's is dead:
# it and every later iterate count as zero.
DEAD_ITERATE_REL = 1e-13

# Push plans a map keeps, the oldest dropped first.
PUSH_PLANS_KEPT = 4


def frobenius_perron(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Push a function forward under the map w.r.t. Lebesgue measure.

    Each affine branch contributes |slope|^-1 * f(inverse branch) on the
    branch image, so the result stays piecewise affine.

    The plan is looked up in `map_.push_plans` by `f.breakpoints.tobytes()`
    and stored on a miss, the oldest of PUSH_PLANS_KEPT dropped.  The store
    lives on the map object, so a map built anew starts empty.  It takes no
    lock: threads must not push through one map at the same time.

    The result has the bits of the operation chain in `tests/references.py`:
    compose with each inverse branch, scale by 1/|slope|, extend to the
    domain by zero pieces, sum, prune.  The apply adds the branches in order
    into zeros and leaves out the chain's zero pieces (pads, cells off f's
    span): each adds +0.0 to a sum that starts at +0.0, which is never -0.0,
    so no bit moves.
    """
    plans = map_.push_plans
    key = f.breakpoints.tobytes()
    plan = plans.get(key)
    if plan is None:
        plan = _branch_plan(map_, f.breakpoints, push=True)
        if len(plans) >= PUSH_PLANS_KEPT:
            del plans[next(iter(plans))]
        plans[key] = plan
    return _apply(plan, f, add=True)


def koopman(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Exact composition f o T.

    The pieces tile the domain, so the apply places each branch instead of
    adding it into zeros.  Placing keeps the sign of a zero: slope 0.0 times
    a decreasing branch's slope is -0.0, which adding to +0.0 makes +0.0.
    """
    return _apply(_branch_plan(map_, f.breakpoints, push=False), f, add=False)


def _branch_plan(map_: PiecewiseLinearMap, bp: np.ndarray, push: bool):
    """The geometry of a push (or composition) of any function on grid bp:
    the output grid, read-only because applies share it, and one term
    (start, stop, src, slope, intercept, k) per branch that reaches f's
    span.  Output cells [start, stop) take input cells src through
    x -> slope*x + intercept and the factor k: the cells of the branch's
    composed grid inside f's span, one run as the branch is monotone, each
    repeated over the output cells it covers.  A push takes each inverse
    branch over its image, k = 1/|branch slope|, padded to the domain by
    zero pieces; a composition each branch over its piece, k = 1."""
    lo, hi = map_.domain.lo, map_.domain.hi
    scale = max(1.0, abs(lo), abs(hi))
    parts, ends = [], []
    for (piece, s, c) in map_.branches:
        span, slope, intercept, k = (piece.lo, piece.hi), s, c, 1.0
        if push:
            span = sorted((s * piece.lo + c, s * piece.hi + c))
            if span[1] - span[0] < 1e-15:
                continue
            slope, intercept, k = 1.0 / s, -c / s, 1.0 / abs(s)
        grid, idx, outside = _preimage_cells(bp, slope, intercept, *span)
        # The push's zero pads out to the domain ends.
        left = push and bool(lo < grid[0] - _BP_EPS * scale)
        right = push and bool(hi > grid[-1] + _BP_EPS * scale)
        ends += [lo] * left + [hi] * right
        parts.append((grid, idx, outside, right, slope, intercept, k))
    out = _dedupe_breakpoints(_sorted_union([np.array(ends), *(p[0] for p in parts)]))
    _check_budget(len(out) - 1)
    mids = 0.5 * (out[:-1] + out[1:])
    terms = []
    for (grid, idx, outside, right, slope, intercept, k) in parts:
        i0, i1 = 0, len(idx)
        if outside is not None:
            inside = np.flatnonzero(~outside)
            if len(inside) == 0:
                continue
            i0, i1 = int(inside[0]), int(inside[-1]) + 1
        # `_cells_covered` of the grid with its pads, read off for the grid's own cells.
        edges = mids.searchsorted(grid)
        if not right:
            edges[-1] = mids.searchsorted(grid[-1], side="right")
        src = idx[i0:i1].repeat(edges[i0 + 1:i1 + 1] - edges[i0:i1])
        start = int(edges[i0])
        terms.append((start, start + len(src), src, slope, intercept, k))
    out.flags.writeable = False
    return out, terms


def _apply(plan, f: PiecewiseAffineFunction, add: bool) -> PiecewiseAffineFunction:
    """Per term, (s0*slope)*k and (s0*intercept + c0)*k for the input
    cells' (s0, c0), added into zeros or placed; the result pruned."""
    grid, terms = plan
    sl = np.zeros(len(grid) - 1)
    ic = np.zeros(len(grid) - 1)
    for (start, stop, src, slope, intercept, k) in terms:
        s0 = f.slopes.take(src)
        part_sl = (s0 * slope) * k
        part_ic = (s0 * intercept + f.intercepts.take(src)) * k
        if add:
            sl[start:stop] += part_sl
            ic[start:stop] += part_ic
        else:
            sl[start:stop] = part_sl
            ic[start:stop] = part_ic
    return PiecewiseAffineFunction(grid, sl, ic, validate=False).pruned()


class NormalizedTransfer:
    """Transfer operator normalized by an invariant density g: f -> P(f g)/g.

    The density must be a step function (true for Ulam densities and for the
    tent-density recursion), which keeps every action exact.  `ginv` is 1/g,
    zero where g is at or below DENSITY_FLOOR.
    """

    def __init__(self, map_: PiecewiseLinearMap, gstar: PiecewiseAffineFunction):
        if not gstar.is_step():
            raise ValueError("the invariant density must be a step function")
        self.map = map_
        self.gstar = gstar
        self.ginv = gstar.reciprocal_step()

    def __call__(self, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
        return frobenius_perron(self.map, f.scale_by_step(self.gstar)).scale_by_step(self.ginv).pruned()

    # -- telescoped iteration helpers ----------------------------------
    def weighted(self, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
        """f*g, the Lebesgue-side representative of f."""
        return f.scale_by_step(self.gstar).pruned()

    def push(self, v: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
        """One reference-measure transfer step of a weighted representative."""
        return frobenius_perron(self.map, v)

    def iterates(self, v: PiecewiseAffineFunction, step: int = 1):
        """Yield (P^(step*n) v, its L1 norm) for n = 1, 2, ... of a weighted start v.

        Each iterate is `step` one-pass pushes followed by one pruning; its L1
        norm is one dot product unless it changes sign inside a cell.  Both
        keep the bits of the operation chains they stand for.  The sequence
        ends before the first dead iterate, one whose L1 norm is at most
        DEAD_ITERATE_REL times the start's; callers read every later term as
        zero.  The sequence is otherwise unbounded: take as many as needed.
        """
        dead = DEAD_ITERATE_REL * v.norm_l1()
        while True:
            for _ in range(step):
                v = self.push(v)
            v = v.pruned()
            l1 = v.norm_l1()
            if l1 <= dead:
                return
            yield v, l1

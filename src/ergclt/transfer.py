"""Exact transfer-operator actions: the Perron-Frobenius and Koopman
operators and the transfer normalized by an invariant density.  Turning
their iterates into variances and diagnostics is the job of `clt`.

All operators act on the piecewise-affine algebra, so pushing a density
forward, composing with the map, and integrating against an invariant
density are free of quadrature error.  Iterates of the normalized operator
telescope through the reference-measure operator (P_T^n f = P^n(f g)/g),
which keeps the piece count growing linearly instead of geometrically and
defers the division by g to the final quadrature.

A push is a plan and an apply.  The plan is its geometry, which depends
only on the map and the breakpoints of the function pushed: the output
grid and, per branch, the output cells the branch covers with the input
cell behind each.  The apply is the arithmetic on the slopes and
intercepts.  Iterates soon repeat their grids, so each map keeps the plans
of the last PUSH_PLANS_KEPT grids it pushed, keyed by the exact bytes of
the breakpoints; a push of a grid seen before does only the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .maps import PiecewiseLinearMap
from .piecewise import (PiecewiseAffineFunction, _check_budget, _dedupe_breakpoints, _preimage_cells,
                        _sorted_union, _zero_pads)

# An iterate whose L1 norm is at most this fraction of its start's is dead:
# it and every later iterate count as zero.
DEAD_ITERATE_REL = 1e-13

# Push plans a map keeps, the oldest dropped first.
PUSH_PLANS_KEPT = 4


def frobenius_perron(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Push a function forward under the map w.r.t. Lebesgue measure.

    Each affine branch contributes |slope|^-1 * f(inverse branch) on the
    branch image, so the result stays piecewise affine.

    The push is a plan and an apply.  The plan (`_push_plan`) is the
    geometry: it reads only the map and f's breakpoints.  It is looked up
    in `map_.push_plans` by the exact bytes `f.breakpoints.tobytes()`, and
    built and stored on a miss, the oldest of PUSH_PLANS_KEPT dropped.  The
    store lives on the map object, never keyed by its id, so a map built
    anew starts empty.  It takes no lock: threads that share a map must not
    push through it at the same time.  The apply is the arithmetic on f's
    values.

    The result has the bits of the chain `compose_affine`, `* (1/|slope|)`,
    `embed`, `pw_sum`, `pruned`.  The plan computes the grids and cell
    indices with that chain's own expressions.  The apply evaluates
    (s0*slope)*k and (s0*intercept + c0)*k, where (s0, c0) are the slope
    and intercept of the input cell, slope and intercept those of the
    inverse branch and k = 1/|branch slope|; it adds the branches in order
    into zeros and prunes the sum.  The chain also adds zero pieces: the
    pads of `embed` and the cells that map off f's span.  The apply leaves
    them out, which moves no bit: each adds +0.0 to a sum that starts at
    +0.0, and such a sum is never -0.0 (x + -x rounds to +0.0), so adding
    +0.0 leaves it as it is.
    """
    plans = map_.push_plans
    key = f.breakpoints.tobytes()
    plan = plans.get(key)
    if plan is None:
        plan = _push_plan(map_, f.breakpoints)
        if len(plans) >= PUSH_PLANS_KEPT:
            del plans[next(iter(plans))]
        plans[key] = plan
    grid, terms = plan
    sl = np.zeros(len(grid) - 1)
    ic = np.zeros(len(grid) - 1)
    for (start, stop, src, slope, intercept, k) in terms:
        s0 = f.slopes.take(src)
        sl[start:stop] += (s0 * slope) * k
        ic[start:stop] += (s0 * intercept + f.intercepts.take(src)) * k
    return PiecewiseAffineFunction(grid, sl, ic, validate=False).pruned()


def _push_plan(map_: PiecewiseLinearMap, bp: np.ndarray):
    """The geometry of a push of any function on the grid bp: the output
    grid, read-only because every push through the plan shares it, and one
    term (start, stop, src, slope, intercept, k) per branch that reaches
    f's span, in branch order.  Output cells [start, stop) take input cells
    src through the inverse branch x -> slope*x + intercept and the factor
    k = 1/|branch slope|.  They are the cells of the branch's composed grid
    that lie inside f's span, one run because the branch is monotone, each
    repeated over the output cells it covers."""
    lo, hi = map_.domain.lo, map_.domain.hi
    parts, ends = [], []
    for (piece, s, c) in map_.branches:
        a_img, b_img = s * piece.lo + c, s * piece.hi + c
        img_lo, img_hi = min(a_img, b_img), max(a_img, b_img)
        if img_hi - img_lo < 1e-15:
            continue
        slope, intercept = 1.0 / s, -c / s
        grid, idx, outside = _preimage_cells(bp, slope, intercept, img_lo, img_hi)
        # `embed` pads the composed grid out to the domain with zero pieces.
        left, right = _zero_pads(grid, lo, hi)
        ends += [lo] * left + [hi] * right
        parts.append((grid, idx, outside, right, slope, intercept, 1.0 / abs(s)))
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
        # `_cells_covered` of the padded grid, read off for the grid's own cells.
        edges = mids.searchsorted(grid)
        if not right:
            edges[-1] = mids.searchsorted(grid[-1], side="right")
        src = idx[i0:i1].repeat(edges[i0 + 1:i1 + 1] - edges[i0:i1])
        start = int(edges[i0])
        terms.append((start, start + len(src), src, slope, intercept, k))
    out.flags.writeable = False
    return out, terms


def koopman(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Exact composition f o T."""
    return f.compose_branches(map_.branch_tuples()).pruned()


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

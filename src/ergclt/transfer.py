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
and intercepts.  A plan reads every branch off one output grid: the
preimages of f's breakpoints under all branches are sorted once with the
span ends, and each branch's input cell is looked up at the output
midpoints.  The branch data it starts from (spans, inverse slopes and
intercepts, pads) are built once per map and kept in `map_.branch_tables`.
The output grid is merged as every grid of the algebra is, so no output
cell is narrower than the merge tolerance.  Iterates soon repeat their
grids, so each map keeps the push plans of the last PUSH_PLANS_KEPT grids,
keyed by the exact bytes of the breakpoints; a push of a grid seen before
does only the arithmetic.  A step (every slope ±0.0) has no slope
arithmetic: `iterates` carries a step start as its grid and intercepts, and
the apply and the prune leave the slope half out, with the bits that
all-zero slopes give.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .maps import PiecewiseLinearMap
from .piecewise import (_BP_EPS, PiecewiseAffineFunction, _check_budget, _dedupe_breakpoints, _dot, _pruned,
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

    Where the merge of the output grid drops no point, the result has the
    bits of the operation chain in `tests/references.py`: compose with each
    inverse branch, scale by 1/|slope|, extend to the domain by zero pieces,
    sum, prune.  The apply adds the branches in order
    into zeros and leaves out the chain's zero pieces (pads, cells off f's
    span): each adds +0.0 to a sum that starts at +0.0, which is never -0.0,
    so no bit moves.
    """
    return PiecewiseAffineFunction(*_push(map_, f.breakpoints, f.slopes, f.intercepts), validate=False)


def _push(map_: PiecewiseLinearMap, bp: np.ndarray, sl: np.ndarray | None, ic: np.ndarray):
    """`frobenius_perron` of the function on grid bp with slopes sl (None for
    a step's) and intercepts ic, as (grid, slopes, intercepts)."""
    plans = map_.push_plans
    key = bp.tobytes()
    plan = plans.get(key)
    if plan is None:
        plan = _branch_plan(map_, bp, push=True)
        if len(plans) >= PUSH_PLANS_KEPT:
            del plans[next(iter(plans))]
        plans[key] = plan
    return _apply(plan, sl, ic, add=True)


def koopman(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Exact composition f o T.

    The pieces tile the domain, so the apply places each branch instead of
    adding it into zeros.  Placing keeps the sign of a zero: slope 0.0 times
    a decreasing branch's slope is -0.0, which adding to +0.0 makes +0.0.
    """
    plan = _branch_plan(map_, f.breakpoints, push=False)
    return PiecewiseAffineFunction(*_apply(plan, f.slopes, f.intercepts, add=False), validate=False)


class _Branches(NamedTuple):
    """The branches an operator reads f through.  Branch b reads f at
    slope*x + intercept for x in its span (lo, hi), times k: `rows` holds
    (lo, hi, slope, intercept, k) per branch, and `lo` ... `intercept` the
    same as (B, 1) columns.  `ends` are the sorted span ends and zero pads,
    points of every output grid."""
    rows: tuple
    lo: np.ndarray
    hi: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    ends: np.ndarray


def _branches(map_: PiecewiseLinearMap, push: bool) -> _Branches:
    """The branch table of the push or the composition, built on first use
    and kept in `map_.branch_tables`.  A push takes each inverse branch over
    its image, k = 1/|branch slope|, with zero pads out to the domain ends;
    a composition takes each branch over its piece, k = 1."""
    table = map_.branch_tables.get(push)
    if table is not None:
        return table
    lo, hi = map_.domain.lo, map_.domain.hi
    scale = max(1.0, abs(lo), abs(hi))
    rows, ends = [], []
    for (piece, s, c) in map_.branches:
        if push:
            a, b = sorted((s * piece.lo + c, s * piece.hi + c))
            if b - a < 1e-15:
                continue
            row = (a, b, 1.0 / s, -c / s, 1.0 / abs(s))
            pads = [lo] * bool(lo < a - _BP_EPS * scale) + [hi] * bool(hi > b + _BP_EPS * scale)
        else:
            row, pads = (piece.lo, piece.hi, s, c, 1.0), []
        rows.append(row)
        ends += [row[0], row[1], *pads]
    table = _Branches(tuple(rows), *np.array(rows).T[:4, :, None], _sorted_union([ends]))
    map_.branch_tables[push] = table
    return table


def _branch_plan(map_: PiecewiseLinearMap, bp: np.ndarray, push: bool):
    """The geometry of a push (or composition) of any function on grid bp:
    the output grid, read-only because applies share it, and one term
    (start, stop, src, slope, intercept, k) per branch that reaches f's
    span.  Output cells [start, stop) take input cells src through
    x -> slope*x + intercept and the factor k: the cells of f that the
    branch reads there, one run as the branch is monotone.

    One pass serves all branches: the preimages of bp under every branch,
    those strictly inside their span, are sorted once with the span ends and
    pads and merged by `_dedupe_breakpoints`, and one `searchsorted` of
    every branch's image of the output midpoints finds its cells of f.  A
    midpoint reads the cell of f on the right side of every breakpoint when
    half its cell outweighs the rounding of the preimages, the midpoints and
    slope*x + intercept: a few ulps of the grid's scale, 1/|slope| times more
    under a small inverse slope, as a push reads a steep branch.  A
    narrower cell may read the cell of f beside its own, and points within
    the merge tolerance (near twins in bp, a preimage next to a span end)
    become one; either costs at most the sliver's width times f's jump, in
    L1.
    """
    table = _branches(map_, push)
    pre = (bp - table.intercept) / table.slope
    out = _dedupe_breakpoints(_sorted_union([table.ends, pre[(pre > table.lo) & (pre < table.hi)]]))
    _check_budget(len(out) - 1)
    out.flags.writeable = False
    mids = 0.5 * (out[:-1] + out[1:])
    y = table.slope * mids + table.intercept
    # `_cell_index`: the inner breakpoints at or below y.
    src = bp[1:-1].searchsorted(y, side="right")
    # The cells a branch reaches, inside its span with y inside f's span,
    # are one run: the span is an interval and y is monotone on it.
    on = (mids > table.lo) & (mids < table.hi) & (y >= bp[0]) & (y <= bp[-1])
    starts, counts = on.argmax(axis=1).tolist(), np.count_nonzero(on, axis=1).tolist()
    return out, [(start, start + count, cells[start:start + count], *row[2:])
                 for (start, count, cells, row) in zip(starts, counts, src, table.rows) if count]


def _apply(plan, slopes: np.ndarray | None, intercepts: np.ndarray, add: bool):
    """Per term, (s0*slope)*k and (s0*intercept + c0)*k for the input
    cells' (s0, c0), added into zeros or placed; the result pruned, as
    (grid, slopes, intercepts).  A step's slopes None give only c0*k, and
    added into zeros these are the bits of all-zero slopes: each slope term
    and s0*intercept is ±0.0, c0 + ±0.0 = c0 for c0 != 0, and +0.0 + ±0.0 = +0.0."""
    grid, terms = plan
    sl = None if slopes is None else np.zeros(len(grid) - 1)
    ic = np.zeros(len(grid) - 1)
    for (start, stop, src, slope, intercept, k) in terms:
        parts = [(ic, intercepts.take(src))]
        if slopes is not None:
            s0 = slopes.take(src)
            parts = [(sl, s0 * slope), (ic, s0 * intercept + parts[0][1])]
        for (out, part) in parts:
            if add:
                view = out[start:stop]  # `out[start:stop] += ...` would copy the sum back onto itself
                view += part * k
            else:
                out[start:stop] = part * k
    return _pruned(grid, sl, ic)


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

    def push(self, v):
        """One reference-measure transfer step of a weighted representative:
        a function, or the (grid, slopes, intercepts) that `iterates` carries
        (slopes None for a step), each pushed to the same form."""
        if isinstance(v, tuple):
            return _push(self.map, *v)
        return frobenius_perron(self.map, v)

    def iterates(self, v: PiecewiseAffineFunction, step: int = 1):
        """Yield (P^(step*n) v, its L1 norm) for n = 1, 2, ... of a weighted start v.

        Each iterate is `step` pushes followed by one pruning; its L1 norm
        is one dot product unless it changes sign inside a cell.  Both keep
        the bits of the operation chains they stand for.  The sequence
        ends before the first dead iterate, one whose L1 norm is at most
        DEAD_ITERATE_REL times the start's; callers read every later term as
        zero.  The sequence is otherwise unbounded: take as many as needed.

        A start with no slope (every slope ±0.0) is pushed and pruned as its
        intercepts only, its L1 norm is `_dot(widths, |intercepts|)`, and its
        iterates get np.zeros slopes.  That product is `norm_l1`'s, whose
        width check every pushed and pruned grid passes: a plan's grid comes
        from `_dedupe_breakpoints`, which keeps only cells wider than
        `_BP_EPS` times the grid's scale, and a prune keeps both ends and
        only widens cells.
        """
        dead = DEAD_ITERATE_REL * v.norm_l1()
        form = (v.breakpoints, v.slopes if v.slopes.any() else None, v.intercepts)
        while True:
            for _ in range(step):
                form = self.push(form)
            bp, sl, ic = form = _pruned(*form)
            v = PiecewiseAffineFunction(bp, np.zeros(len(ic)) if sl is None else sl, ic, validate=False)
            l1 = _dot(bp[1:] - bp[:-1], abs(ic)) if sl is None else v.norm_l1()
            if l1 <= dead:
                return
            yield v, l1

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
Only where two distinct output points come within the merge tolerance is
the plan built branch by branch, which that merge needs for its bits.
Iterates soon repeat their grids, so each map keeps the push plans of the
last PUSH_PLANS_KEPT grids, keyed by the exact bytes of the breakpoints; a
push of a grid seen before does only the arithmetic.  A step (every slope
±0.0) has no slope arithmetic: `iterates` carries a step start as its grid
and intercepts, and the apply and the prune leave the slope half out, with
the bits that all-zero slopes give.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .maps import PiecewiseLinearMap
from .piecewise import (_BP_EPS, PiecewiseAffineFunction, _cell_index, _check_budget, _dedupe_breakpoints, _dot,
                        _pruned, _sorted_union)

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
    points of every output grid; `right` marks the branches with a zero pad
    to their right; `gap` is the narrowest output cell at which the
    one-pass plan has the per-branch plan's bits."""
    rows: tuple
    lo: np.ndarray
    hi: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    ends: np.ndarray
    right: tuple
    gap: float


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
    rows, ends, right = [], [], []
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
        right.append(hi in pads)
    cols = np.array(rows).T[:4, :, None]
    ends = _sorted_union([ends])
    # `_branch_plan`'s margin, in units of the grids' scale: the rounding it
    # must outweigh is below 2u(4 + 1/|slope|) for unit roundoff u = 2^-53,
    # bounded here by 2^-50 (1 + 1/|slope|), which passes _BP_EPS only for
    # |slope| below about 1/10.
    margin = max(_BP_EPS, 2.0**-50 * (1.0 + 1.0 / np.abs(cols[2]).min()))
    table = _Branches(tuple(rows), *cols, ends, tuple(right), margin * max(1.0, abs(ends[0]), abs(ends[-1])))
    map_.branch_tables[push] = table
    return table


def _branch_plan(map_: PiecewiseLinearMap, bp: np.ndarray, push: bool):
    """The geometry of a push (or composition) of any function on grid bp:
    the output grid, read-only because applies share it, and one term
    (start, stop, src, slope, intercept, k) per branch that reaches f's
    span.  Output cells [start, stop) take input cells src through
    x -> slope*x + intercept and the factor k: the cells of f that the
    branch reads there, one run as the branch is monotone.

    One pass serves all branches (`_one_pass_plan`): the preimages of bp
    under every branch, those strictly inside their span sorted once with
    the span ends and pads, and one `searchsorted` of every branch's image
    of the output midpoints.  The per-branch construction
    (`_per_branch_plan`) builds each branch's grid, reads its cells at that
    grid's own midpoints and merges the grids by `_dedupe_breakpoints`.

    The two agree bit for bit when every output cell is wider than the
    table's gap.  No merge then drops a point, so the grids are the same,
    and every midpoint of either grid lies at least half a cell from every
    preimage.  That margin outweighs the rounding of the preimages, the
    midpoints and slope*x + intercept (a few ulps of the grid's scale, and
    1/|slope| times more where |slope| is small, as a push reads a steep
    branch), so a midpoint of the output grid and one of the branch grid
    around it fall in the same cell of f, on the side of every breakpoint
    that their exact values are on.  A narrower cell comes from distinct
    points that a merge would join or that rounding could put out of order;
    there only the per-branch construction reproduces the merge and the
    cells read at the branch grid's midpoints, so it stays as the exact
    path.
    """
    table = _branches(map_, push)
    grid, terms = _one_pass_plan(table, bp) or _per_branch_plan(table, bp)
    grid.flags.writeable = False
    return grid, terms


def _one_pass_plan(table: _Branches, bp: np.ndarray):
    """(grid, terms) of all branches at once, or None where an output cell
    is not wider than the table's gap."""
    pre = (bp - table.intercept) / table.slope
    out = _sorted_union([table.ends, pre[(pre > table.lo) & (pre < table.hi)]])
    if (out[1:] - out[:-1]).min() <= table.gap:
        return None
    _check_budget(len(out) - 1)
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


def _per_branch_plan(table: _Branches, bp: np.ndarray):
    """(grid, terms) branch by branch, each over its own merged grid."""
    parts = [_preimage_cells(bp, slope, intercept, lo, hi) for (lo, hi, slope, intercept, _) in table.rows]
    out = _dedupe_breakpoints(_sorted_union([table.ends, *(grid for (grid, _, _) in parts)]))
    _check_budget(len(out) - 1)
    mids = 0.5 * (out[:-1] + out[1:])
    terms = []
    for ((grid, idx, outside), right, row) in zip(parts, table.right, table.rows):
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
        terms.append((start, start + len(src), src, *row[2:]))
    return out, terms


def _preimage_cells(bp: np.ndarray, slope: float, intercept: float, lo: float, hi: float):
    """The geometry of x -> f(slope*x + intercept) on [lo, hi] for f on grid
    bp, slope != 0: the composed grid, the cell of f behind each of its
    cells, and the mask of its cells that map off f's span (None if none do).
    It reads only bp, never f's values."""
    # Preimages of f's breakpoints under the affine map, kept inside (lo, hi).
    pre = (bp - intercept) / slope
    if slope < 0:
        pre = pre[::-1]
    inner = pre[(pre > lo) & (pre < hi)]
    grid = _dedupe_breakpoints(np.concatenate(([lo], inner, [hi])))
    mids = 0.5 * (grid[:-1] + grid[1:])
    y = slope * mids + intercept
    idx = _cell_index(bp, y)
    # f is 0 off its span, not its clamped end piece; y is monotone, so its
    # ends show whether any cell maps off the span, and those cells are a
    # prefix or a suffix of the grid's.
    f_lo, f_hi = bp[0], bp[-1]
    outside = None
    if min(y[0], y[-1]) < f_lo or max(y[0], y[-1]) > f_hi:
        outside = (y < f_lo) | (y > f_hi)
    return grid, idx, outside


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

        Each iterate is `step` one-pass pushes followed by one pruning; its L1
        norm is one dot product unless it changes sign inside a cell.  Both
        keep the bits of the operation chains they stand for.  The sequence
        ends before the first dead iterate, one whose L1 norm is at most
        DEAD_ITERATE_REL times the start's; callers read every later term as
        zero.  The sequence is otherwise unbounded: take as many as needed.

        A start with no slope (every slope ±0.0) is pushed and pruned as its
        intercepts only, its L1 norm is `_dot(widths, |intercepts|)`, and its
        iterates get np.zeros slopes.  That product is `norm_l1`'s, whose
        width check every pushed and pruned grid passes: a one-pass plan's
        cells are wider than the table's gap, at least `_BP_EPS` times the
        grid's scale; `_dedupe_breakpoints` keeps only such cells; and a
        prune keeps both ends and only widens cells.
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

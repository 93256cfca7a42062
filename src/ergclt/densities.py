"""Ulam discretization, invariant densities, and the tent density in closed form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .maps import (
    Interval,
    PiecewiseLinearMap,
    _check_tent_param,
    tent_map,
    tent_support_cycle,
)
from .piecewise import MEASURE_TOL, PiecewiseAffineFunction
from .transfer import frobenius_perron


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class DetectionError(RuntimeError):
    """No support cycle found within the iteration budget."""


# Each Ulam row sums to 1 up to the rounding of the `linspace` edges, which
# the division by the cell width magnifies n-fold: a row may miss 1 by this
# many times n * 2^-52.  Over grids in [2, 65536] on the tent and
# three-branch maps the worst measured error is 0.685 times n * 2^-52.
ROW_SUM_ULPS = 4.0


@dataclass
class UlamOperator:
    """Row-stochastic discretization of the transfer operator on a uniform grid.

    Entry (i, j) of `rows` is the exact fraction of cell i whose image lands
    in cell j; densities act from the left (row vector times matrix).  The
    push is built once as `pushes`, the transpose stored by target cell, so
    that each step is one CSR matvec: it sums every target cell over its
    source cells in ascending order, as `d @ rows` does, and gives the same
    bits without a transpose and a scatter per step.  `invariant_density`
    calls `apply_to_masses` only where any cell may hold mass (its first
    push and its residual checks); its other steps, and every step of
    `detect_periodicity`, multiply by the block of `pushes` on the cells
    that can (`_sub_chain`), with the same bits.  Rows whose sums miss 1 by
    more than ROW_SUM_ULPS * grid_n * 2^-52 raise ValueError.
    """

    grid_n: int
    domain: Interval
    rows: sp.csr_matrix
    pushes: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        err = self.row_sum_error()
        if err > ROW_SUM_ULPS * self.grid_n * 2.0**-52:
            raise ValueError(f"Ulam rows are not stochastic (max error {err:.3e})")
        self.pushes = self.rows.T.tocsr()

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.domain.lo, self.domain.hi, self.grid_n + 1)

    @property
    def cell_width(self) -> float:
        return self.domain.length / self.grid_n

    def apply_to_masses(self, d: np.ndarray) -> np.ndarray:
        """One push-forward step of a cell-mass vector."""
        return self.pushes @ d

    def residual(self, d: np.ndarray) -> float:
        """The L1 norm of P d - d, formed in place in the push's output."""
        out = self.apply_to_masses(d)
        out -= d
        return float(np.abs(out, out=out).sum())

    def masses_to_density(self, d: np.ndarray) -> PiecewiseAffineFunction:
        return PiecewiseAffineFunction.step(self.edges, d / self.cell_width)

    def row_sum_error(self) -> float:
        return float(np.abs(self.rows.sum(axis=1) - 1.0).max())


def ulam_matrix(map_: PiecewiseLinearMap, n: int) -> UlamOperator:
    """Exact Ulam matrix: branch preimages are intervals, so every entry is an
    interval-length ratio computed in closed form.  The entries reach the
    CSR conversion joined, with int32 indices, and no branch array alive."""
    import scipy.sparse as sp  # here, so that `import ergclt` loads no scipy

    if n < 2:
        raise ValueError("need at least two cells")
    rows_i, cols_j, vals = (np.concatenate(part) for part in zip(*_ulam_entries(map_, n)))
    rows = sp.coo_matrix((vals, (rows_i, cols_j)), shape=(n, n)).tocsr()
    return UlamOperator(grid_n=n, domain=map_.domain, rows=rows)


def _ulam_entries(map_: PiecewiseLinearMap, n: int):
    """Yield the Ulam entries (rows, columns, values) of each branch, one
    triple per offset of the image cell from the branch's first one."""
    lo, hi = map_.domain.lo, map_.domain.hi
    edges = np.linspace(lo, hi, n + 1)
    w = (hi - lo) / n
    for (piece, s, c) in map_.branches:
        # source cells overlapping this branch piece
        i0 = max(int(np.floor((piece.lo - lo) / w)), 0)
        i1 = min(int(np.ceil((piece.hi - lo) / w)), n)
        idx = np.arange(i0, i1, dtype=np.int32)
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
        frac = (seg_hi - seg_lo) / w  # share of the source cell in this branch
        j_lo = np.clip(np.searchsorted(edges, img_lo, side="right") - 1, 0, n - 1).astype(np.int32)
        j_hi = np.clip(np.searchsorted(edges, img_hi, side="left") - 1, 0, n - 1).astype(np.int32)
        span = int((j_hi - j_lo).max()) + 1
        img_len = img_hi - img_lo
        for off in range(span):
            j = np.minimum(j_lo + off, j_hi)
            ov = np.minimum(img_hi, edges[j + 1]) - np.maximum(img_lo, edges[j])
            ov = np.maximum(ov, 0.0)
            m = (off <= j_hi - j_lo) & (ov > 0) & (img_len > 0)
            if np.any(m):
                yield idx[m], j[m], frac[m] * ov[m] / img_len[m]


_CESARO_WINDOWS = (1, 2, 4, 8, 16, 32, 64)
_POWER_MAX_ITER = 100_000

# detect_periodicity: a cell is in the support when its mass exceeds
# _SUPPORT_EPS; supports are compared over _DETECT_WINDOW trailing iterates,
# within _DETECT_MAX_ITER iterations in all.
_SUPPORT_EPS = 1e-9
_DETECT_WINDOW = 128
_DETECT_MAX_ITER = 65_536


def invariant_density(op: UlamOperator, *, tol: float = 1e-10, return_info: bool = False):
    """Stationary density of the Ulam chain by Cesaro-averaged power iteration.

    Plain power iteration oscillates when the chain has cyclic components, so
    the fixed vector is extracted by averaging over a window of consecutive
    iterates; windows 1, 2, 4, ..., 64 are tried after each block of
    iterations.  The blocks are known in advance (64 iterations, doubling up
    to 4096), so each window keeps one running sum that adds the last w
    iterates of a block oldest first and is divided by w at the check: the
    same sum, in the same order, as a mean over the stacked iterates, held
    in seven vectors instead of 64.

    Only the first push runs over every cell.  From then on each iterate is
    0.0 off the image cells (the rows of `op.pushes` that hold an entry,
    which every cell maps into), so the iteration and the window sums run on
    the sub-chain of the image cells: it drops only +0.0 terms, and every
    kept sum has the bits of the full product.  The sums, the residual and the density are formed on
    full-length vectors, since numpy's pairwise sum groups elements by
    position and a compacted vector would round differently.
    """
    n = op.grid_n
    image = np.flatnonzero(np.diff(op.pushes.indptr))
    chain = _sub_chain(op.pushes, image)
    d = np.full(n, 1.0 / n)
    sums = [np.zeros(len(image)) for _ in _CESARO_WINDOWS]
    best_res = math.inf
    best = d
    check_every = max(_CESARO_WINDOWS)
    steps = 0
    while steps < _POWER_MAX_ITER:
        for left in range(check_every, 0, -1):  # iterates left in the block, this one included
            d = chain @ d if steps else op.apply_to_masses(d)[image]
            steps += 1
            for wdw, acc in zip(_CESARO_WINDOWS, sums):
                if left <= wdw:
                    acc += d
        for wdw, acc in zip(_CESARO_WINDOWS, sums):
            acc /= wdw
            avg = np.zeros(n)
            avg[image] = acc
            avg /= avg.sum()
            acc.fill(0.0)
            res = op.residual(avg)
            if res < best_res:
                best_res = res
                best = avg
        if best_res <= tol:
            break
        check_every = min(2 * check_every, 4096)
    if best_res > tol:
        raise ConvergenceError(f"no invariant density after {steps} iterations", best_res)
    del sums, chain, d  # so that the density is not built on top of them
    best = np.maximum(best, 0.0)
    best /= best.sum()
    fn = op.masses_to_density(best)
    if return_info:
        return fn, {"residual": best_res, "iterations": steps}
    return fn


def detect_periodicity(op: UlamOperator, density: PiecewiseAffineFunction) -> int:
    """Cycle length of the support of iterated densities.

    Seeds a unit mass in the cell of `op` that holds the midpoint of the
    largest piece of `density`, an invariant step density of the map on any
    grid (a cell interior to one cyclic component), iterates, and finds
    the smallest r with support(n + r) == support(n) over a trailing window
    of stabilized iterates, where the support is the set of cells with mass
    > _SUPPORT_EPS.

    The mass never leaves the cells reachable from the seed along the
    chain's entries, a closed set, so every other cell holds 0.0 at every
    step.  The pushes run on the sub-chain of the reachable cells: it drops
    only +0.0 terms, so each kept sum, and each support, has the bits of the
    full product.
    """
    top = int(np.argmax(density.intercepts))
    mid = 0.5 * (density.breakpoints[top] + density.breakpoints[top + 1])
    seed = int(np.clip(np.searchsorted(op.edges, mid, side="right") - 1, 0, op.grid_n - 1))
    cells = _reachable(op.rows, seed)
    chain = _sub_chain(op.pushes, cells)
    d = np.zeros(len(cells))
    d[np.searchsorted(cells, seed)] = 1.0
    burn = 512
    steps = 0
    while steps < _DETECT_MAX_ITER:
        target = min(burn, _DETECT_MAX_ITER - steps - _DETECT_WINDOW)
        for _ in range(max(target, 0)):
            d = chain @ d
            steps += 1
        supports = []
        for _ in range(_DETECT_WINDOW):
            d = chain @ d
            steps += 1
            supports.append(np.packbits(d > _SUPPORT_EPS).tobytes())
        r = _support_cycle_length(supports)
        if r is not None:
            return r
        burn *= 2
    raise DetectionError(f"no support cycle within {_DETECT_MAX_ITER} iterations")


def _row_entries(m, rows: np.ndarray):
    """Positions in the CSR arrays of m of the entries of `rows`, row by row
    in storage order, and the offset of each row's run among them, with
    their total count last."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    bounds = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], counts), bounds


def _reachable(m, seed: int) -> np.ndarray:
    """The sorted cells reachable from `seed` along the stored entries of m
    (row i to column j), by breadth-first search: every entry of a row in
    the result points inside it."""
    seen = np.zeros(m.shape[0], dtype=bool)
    seen[seed] = True
    frontier = np.array([seed])
    while len(frontier):
        new = m.indices[_row_entries(m, frontier)[0]]
        new = np.unique(new[~seen[new]])
        seen[new] = True
        frontier = new
    return np.flatnonzero(seen)


def _sub_chain(m, cells: np.ndarray):
    """The block of the CSR matrix m on the sorted `cells`, built in one pass
    over its arrays: each row keeps its entries in the cells in storage
    order, so a product sums them in the order the full product does.  On
    every cell it is m itself."""
    import scipy.sparse as sp

    if len(cells) == m.shape[0]:
        return m
    at, bounds = _row_entries(m, cells)
    pos = np.full(m.shape[1], -1, dtype=m.indices.dtype)
    pos[cells] = np.arange(len(cells))
    col = pos[m.indices[at]]
    keep = col >= 0
    kept = np.zeros(len(at) + 1, dtype=m.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return sp.csr_matrix((m.data[at[keep]], col[keep], kept[bounds]), shape=(len(cells), len(cells)))


def _support_cycle_length(supports) -> int | None:
    n = len(supports)
    for r in range(1, n // 2 + 1):
        if all(supports[k] == supports[k + r] for k in range(n - r)):
            return r
    return None


# The critical orbit runs in fixed point with this many fractional bits, so
# each c_n is T^n(0) correctly rounded.
_ORBIT_BITS = 160


@lru_cache(maxsize=64)
def tent_density(a: float) -> PiecewiseAffineFunction:
    """Invariant density of the tent map in closed form over its critical
    orbit c_n = T^n(0) (Ito, Tanaka & Nakada 1979; Góra 2009): proportional to
    Σ_(n≥1) s_n a^(1−n) 1[−1, c_n], with s_1 = 1 and a sign flip after each
    c_n > 0, up to the term where the mass left, a^(1−n) / (1 − 1/a), is
    below 2^-53.  It is windowed to the support cycle, which clears the
    cancellation residue off it, scaled to mass 1 before pruning and divided
    by the pruned mass.  A windowed mass that is not positive, or
    ‖Pg − g‖₁ > MEASURE_TOL (deep windows, too narrow for float64), raises
    ConvergenceError naming a."""
    _check_tent_param(a)
    one = 1 << _ORBIT_BITS
    a_fixed = int(a * 2.0**52) << (_ORBIT_BITS - 52)   # exact for a in (1, 2]
    x, n, sign, cuts, weights = a_fixed - one, 1, 1.0, [], []
    while a ** (1 - n) >= 2.0**-53 * (1.0 - 1.0 / a):
        cuts.append(x / one)
        weights.append(sign * a ** (1 - n))
        sign = -sign if x > 0 else sign
        x, n = a_fixed - one - (a_fixed * abs(x) >> _ORBIT_BITS), n + 1
    order = np.argsort(cuts, kind="stable")
    bp = np.concatenate(([-1.0], np.array(cuts)[order], [1.0]))
    # the cell left of the k-th smallest cut sums the weights of the cuts from it up
    values = np.append(np.cumsum(np.array(weights)[order][::-1])[::-1], 0.0)
    wide = bp[1:] > bp[:-1]
    g = PiecewiseAffineFunction.step(np.append(bp[:-1][wide], 1.0), values[wide])
    g = g.windowed_union(tent_support_cycle(a).as_pairs())
    mass = g.integral()
    if not mass > 0:
        raise ConvergenceError(f"the tent density at a={a!r} has no mass on its support cycle", mass)
    g = (g * (1.0 / mass)).pruned()
    g = g * (1.0 / g.integral())
    residual = (frobenius_perron(tent_map(a), g) - g).norm_l1()
    if residual > MEASURE_TOL:
        raise ConvergenceError(f"the tent density at a={a!r} is not invariant (‖Pg − g‖₁)", residual)
    return g


def resolving_grid(a: float) -> int:
    """The smallest power-of-two Ulam grid on [-1, 1] with 16 cells per
    interval of the tent support cycle and per gap between two of them; a
    coarser one need not show the formula's period."""
    ivs = sorted(tent_support_cycle(a).as_pairs())
    feature = min([hi - lo for lo, hi in ivs] + [l2 - h1 for (_, h1), (l2, _) in zip(ivs, ivs[1:])])
    if feature <= 0:
        raise ValueError(f"the support cycle at a={a!r} has touching intervals: no grid resolves it")
    n = 2
    while 2.0 / n > feature / 16.0:
        n *= 2
    return n

"""Ulam discretization, invariant densities, and the exact tent-density recursion."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .maps import (
    Interval,
    PiecewiseLinearMap,
    SQRT2,
    _check_tent_param,
    _tent_core_interval,
    squared_param,
    tent_conjugacy,
    tent_fixed_point,
    tent_invariant_interval,
    tent_map,
)
from .piecewise import MEASURE_TOL, PiecewiseAffineFunction, _dot


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class DetectionError(RuntimeError):
    """No support cycle found within the iteration budget."""


@dataclass
class UlamOperator:
    """Row-stochastic discretization of the transfer operator on a uniform grid.

    Entry (i, j) is the exact fraction of cell i whose image lands in cell j;
    densities act from the left (row vector times matrix).
    """

    grid_n: int
    domain: Interval
    rows: sp.csr_matrix

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.domain.lo, self.domain.hi, self.grid_n + 1)

    @property
    def cell_width(self) -> float:
        return self.domain.length / self.grid_n

    def apply_to_masses(self, d: np.ndarray) -> np.ndarray:
        """One push-forward step of a cell-mass vector."""
        return d @ self.rows

    def masses_to_density(self, d: np.ndarray) -> PiecewiseAffineFunction:
        return PiecewiseAffineFunction.step(self.edges, d / self.cell_width)

    def row_sum_error(self) -> float:
        return float(np.abs(self.rows.sum(axis=1) - 1.0).max())


def ulam_matrix(map_: PiecewiseLinearMap, n: int) -> UlamOperator:
    """Exact Ulam matrix: branch preimages are intervals, so every entry is an
    interval-length ratio computed in closed form."""
    if n < 2:
        raise ValueError("need at least two cells")
    lo, hi = map_.domain.lo, map_.domain.hi
    edges = np.linspace(lo, hi, n + 1)
    w = (hi - lo) / n
    rows_i = []
    cols_j = []
    vals = []
    for (piece, s, c) in map_.branches:
        # source cells overlapping this branch piece
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
        frac = (seg_hi - seg_lo) / w  # share of the source cell in this branch
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
    op = UlamOperator(grid_n=n, domain=map_.domain, rows=mat)
    err = op.row_sum_error()
    if err > 1e-12:
        raise ValueError(f"Ulam rows are not stochastic (max error {err:.3e})")
    return op


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
    iterates; windows 1, 2, 4, ..., 64 are tried.
    """
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


def detect_periodicity(op: UlamOperator) -> int:
    """Cycle length of the support of iterated densities.

    Seeds a unit mass in the cell where the invariant density is largest (a
    cell interior to one cyclic component), iterates, and finds the smallest
    r with support(n + r) == support(n) over a trailing window of stabilized
    iterates, where the support is the set of cells with mass > _SUPPORT_EPS.
    """
    # Loose tolerance: only the argmax cell is needed, to seed inside a component.
    try:
        dinv = invariant_density(op, tol=1e-6)
    except ConvergenceError as exc:
        raise DetectionError(f"cannot locate a cyclic component: {exc}") from exc
    seed = int(np.argmax(dinv.intercepts))
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


def _support_cycle_length(supports) -> int | None:
    n = len(supports)
    for r in range(1, n // 2 + 1):
        if all(supports[k] == supports[k + r] for k in range(n - r)):
            return r
    return None


@lru_cache(maxsize=64)
def tent_ulam_density(a: float, grid_n: int = 4096) -> PiecewiseAffineFunction:
    """Ulam invariant density of the tent map, windowed to the invariant core.

    The true density vanishes outside [T_a^2(0), T_a(0)]; boundary cells of
    the discrete chain can hold a little stray mass, which is clipped and the
    density renormalized.
    """
    op = ulam_matrix(tent_map(a), grid_n)
    fn = invariant_density(op)
    core = _tent_core_interval(a)
    if core.lo > -1.0 + 1e-12 or core.hi < 1.0 - 1e-12:
        fn = fn.windowed_union([(core.lo, core.hi)])
        mass = fn.integral()
        fn = fn * (1.0 / mass)
    return fn.pruned()


@lru_cache(maxsize=64)
def tent_density(a: float, base_grid: int = 4096) -> PiecewiseAffineFunction:
    """Invariant density of the tent map.

    Above sqrt(2) this is the (windowed) Ulam density.  Below, the density is
    assembled exactly from the squared-parameter density via the two inverse
    conjugacy branches: scale by a/(2 x*) on the right invariant interval and
    by 1/(2 x*) on the central one, one level per squaring, from the first
    square above sqrt(2) down to a.  a > 1 + 1e-6 passes sqrt(2) after at
    most 19 squarings.  Deep windows have cells narrower than the breakpoint
    merge tolerance, and merging them loses mass: a level whose assembled
    density has its mass off by more than MEASURE_TOL raises
    ConvergenceError, naming a and that level, with the mass error as its
    residual.
    """
    _check_tent_param(a)
    levels = [a]
    while levels[-1] <= SQRT2:
        levels.append(squared_param(levels[-1]))
    fn = tent_ulam_density(levels.pop(), base_grid)
    for level in reversed(levels):
        xs = tent_fixed_point(level)
        parts = []
        for i in (0, 1):
            fwd, _ = tent_conjugacy(level, i)
            iv = tent_invariant_interval(level, i)
            part = fn.compose_affine(fwd.slope, fwd.intercept, iv.lo, iv.hi)
            factor = level / (2.0 * xs) if i == 0 else 1.0 / (2.0 * xs)
            parts.append(part * factor)
        central, right = parts[1], parts[0]
        bp = np.concatenate((central.breakpoints, right.breakpoints[1:]))
        sl = np.concatenate((central.slopes, right.slopes))
        ic = np.concatenate((central.intercepts, right.intercepts))
        fn = PiecewiseAffineFunction(bp, sl, ic).embed(-1.0, 1.0).pruned()
        mass_err = _dot(fn.breakpoints[1:] - fn.breakpoints[:-1], fn.piece_values()) - 1.0
        if abs(mass_err) > MEASURE_TOL:
            raise ConvergenceError(
                f"the tent density at a={a!r} has lost mass in the conjugacy assembly at a={level!r}", mass_err)
    return fn

"""Exact transfer-operator actions and series-summability diagnostics.

All operators act on the piecewise-affine algebra, so pushing a density
forward, composing with the map, and integrating against an invariant
density are free of quadrature error.  Iterates of the normalized operator
telescope through the reference-measure operator (P_T^n f = P^n(f g)/g),
which keeps the piece count growing linearly instead of geometrically and
defers the division by g to the final quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .maps import PiecewiseLinearMap, three_branch_map
from .piecewise import (MEASURE_TOL, PiecewiseAffineFunction, _dot, _embedded, _sum_of_parts,
                        integrate_product, pw_sum)

# An iterate whose L1 norm is at most this fraction of its start's is dead:
# it and every later iterate count as zero.
DEAD_ITERATE_REL = 1e-13


def frobenius_perron(map_: PiecewiseLinearMap, f: PiecewiseAffineFunction) -> PiecewiseAffineFunction:
    """Push a function forward under the map w.r.t. Lebesgue measure.

    Each affine branch contributes |slope|^-1 * f(inverse branch) on the
    branch image, so the result stays piecewise affine.  One pass over
    arrays that builds no intermediate function, with the bits of the chain
    `compose_affine`, `* (1/|slope|)`, `embed`, `pw_sum`, `pruned`: the same
    expressions in the same order.
    """
    lo, hi = map_.domain.lo, map_.domain.hi
    parts = []
    for (piece, s, c) in map_.branches:
        a_img, b_img = s * piece.lo + c, s * piece.hi + c
        img_lo, img_hi = min(a_img, b_img), max(a_img, b_img)
        if img_hi - img_lo < 1e-15:
            continue
        grid, sl, ic = f._composed(1.0 / s, -c / s, img_lo, img_hi)
        k = 1.0 / abs(s)
        parts.append(_embedded(grid, sl * k, ic * k, lo, hi))
    return _sum_of_parts(parts).pruned()


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


def three_branch_transfer() -> NormalizedTransfer:
    g = PiecewiseAffineFunction.constant(0.0, 1.0, 1.0)
    return NormalizedTransfer(three_branch_map(), g)


@dataclass
class ConditionReport:
    """Summability diagnostics for the dyadic/full series of iterate norms.

    V[n-1] is the L2(nu) norm of the n-term partial sum of normalized-operator
    iterates; the two partial-sum arrays track the full series sum n^(-3/2) V_n
    and its dyadic counterpart sum 2^(-j/2) V_{2^j}, which bound each other.
    """

    K: int
    V: list[float]
    series_partial: list[float]
    dyadic_partial: list[float]
    theta: float
    iterate_norm2: list[float] = field(default_factory=list)
    interp_bound: list[float] = field(default_factory=list)


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x in closed form, Σ(x−x̄)(y−ȳ) / Σ(x−x̄)²."""
    dx = x - x.mean()
    return _dot(dx, y - y.mean()) / _dot(dx, dx)


def _fit_decay_rate(norms: np.ndarray) -> float:
    """Least-squares geometric rate of a norm sequence, fitted on the tail
    half to skip the transient.  Sequences that hit exact zero fit theta=0."""
    norms = np.asarray(norms)
    pos = norms > 0
    if not np.all(pos):
        return 0.0
    n = len(norms)
    start = n // 2 if n >= 4 else 0
    idx = np.arange(start + 1, n + 1, dtype=float)
    logs = np.log(norms[start:])
    if len(idx) < 2:
        return 1.0
    return math.exp(_fit_slope(idx, logs))


def condition_report(h: PiecewiseAffineFunction, transfer_action: NormalizedTransfer,
                     K: int = 64) -> ConditionReport:
    """Norms V_n of partial sums of transfer iterates plus decay diagnostics.

    Requires h centered under the invariant measure of the action to
    MEASURE_TOL.  Norms are exact piecewise quadratures; once an iterate dies
    the remaining V_n are constant and filled without iterating.
    """
    if K < 8:
        raise ValueError("need K >= 8")
    mean = integrate_product([h, transfer_action.gstar])
    if abs(mean) > MEASURE_TOL:
        raise ValueError(f"observable is not centered: ∫ h dν = {mean:.3e}")
    ginv = transfer_action.ginv
    sup_h = h.sup_norm()

    running = transfer_action.weighted(h)   # sum of the iterates so far
    V = []
    pt2 = []
    interp = []
    for v, l1 in itertools.islice(transfer_action.iterates(running), K):
        V.append(running.norm_l2(ginv))
        running = pw_sum([running, v]).pruned()
        pt2.append(v.norm_l2(ginv))
        interp.append(math.sqrt(max(sup_h, 0.0) * l1))
    if len(V) < K:
        # a dead iterate fixes the partial sum
        V.extend([running.norm_l2(ginv)] * (K - len(V)))
        pt2.append(0.0)
        interp.append(0.0)
    theta = _fit_decay_rate(np.array(pt2))

    ns = np.arange(1, K + 1, dtype=float)
    series_partial = np.cumsum(np.array(V) * ns ** (-1.5)).tolist()
    dyadic = []
    total = 0.0
    j = 0
    while 2**j <= K:
        total += 2.0 ** (-j / 2.0) * V[2**j - 1]
        dyadic.append(total)
        j += 1
    return ConditionReport(
        K=K,
        V=V,
        series_partial=series_partial,
        dyadic_partial=dyadic,
        theta=theta,
        iterate_norm2=pt2,
        interp_bound=interp,
    )

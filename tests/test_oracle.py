"""The float algebra against the exact-rational oracle (`tests/oracle.py`):
the push, the composition, their iterates, the iterates of the normalized
transfer and the product integral stay within `oracle.bound` of the exact
results, on grids with near twins and under STEEP_MAP's slope-256 branch."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from ergclt import transfer
from ergclt.maps import tent_map
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import integrate_product
from ergclt.transfer import frobenius_perron, koopman

from strategies import (SHORT_IMAGE_MAP, STEEP_MAP, maps_and_functions_through, partial_functions, plan_cases, spans,
                        steep_sliver_grid)

OPERATORS = {True: (frobenius_perron, oracle.push), False: (koopman, oracle.compose)}


def unpruned(map_, f, push):
    """The push (or composition) of f on its plan, the cells left unpruned."""
    with mock.patch.object(transfer, "_pruned", lambda *form: form):
        bp, sl, ic = transfer._apply(transfer._branch_plan(map_, f.breakpoints, push), f.slopes, f.intercepts, push)
    return PAF(bp, sl, ic, validate=False)


@settings(max_examples=120)
@example((tent_map(1.3), np.array([-1.0, -0.2, -0.2 + 3e-15, 0.4, 1.0])), [0.3, -1.0, 1.0, -1.0], True)
@example((STEEP_MAP, steep_sliver_grid(0.998)), [1.0, -2.0, 3.0], True)
@given(plan_cases(), st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8), st.booleans())
def test_property_plan_within_the_oracle_bound(case, values, push):
    """One push or composition, before its prune, is within the rounding
    bound of the exact operator: the sharpest test of the plan, on grids
    with near twins, steep branches and iterates' grids."""
    map_, bp = case
    n = len(bp) - 1
    f = PAF(bp, np.resize(np.array(values[::-1]), n), np.resize(np.array(values), n))
    e = OPERATORS[push][1](map_, oracle.exact(f))
    assert oracle.l1_distance(unpruned(map_, f, push), e) <= oracle.bound(1, f.sup_norm(), oracle.width(map_))


@given(maps_and_functions_through(), st.integers(1, 16), st.booleans())
def test_property_iterated_operators_within_the_oracle_bound(case, k, push):
    """`frobenius_perron`^k and `koopman`^k, each step pruned, for k <= 16
    while the exact result has at most oracle.MAX_EXACT_PIECES pieces."""
    map_, f = case
    float_op, exact_op = OPERATORS[push]
    e = oracle.exact(f)
    sup = 0.0
    for steps in range(1, k + 1):
        if e.num_pieces > oracle.MAX_EXACT_PIECES:
            break
        sup = max(sup, f.sup_norm())
        f, e = float_op(map_, f), exact_op(map_, e)
        assert oracle.l1_distance(f, e) <= oracle.bound(steps, sup, oracle.width(map_), prunes=steps)


@given(maps_and_functions_through(), st.sampled_from([1, 2]))
def test_property_iterates_within_the_oracle_bound(case, step):
    """`NormalizedTransfer.iterates` at density 1 for 8 lags."""
    oracle.assert_iterates_within_bound(*case, step)


@given(st.lists(partial_functions(), min_size=1, max_size=3), st.booleans(), spans(-1.5, 1.5))
def test_property_integrate_product_within_the_oracle_bound(fns, clip, window):
    """The product integral of one to three factors; below the smallest
    normal float (2^-1022) the products underflow, which the bound allows."""
    lo, hi = window if clip else (None, None)
    got = integrate_product(fns, lo, hi)
    want = oracle.integral([oracle.exact(f) for f in fns], *(None if x is None else Fraction(x) for x in (lo, hi)))
    span = (hi - lo) if clip else 2.0
    allowed = oracle.bound(1, float(np.prod([f.sup_norm() for f in fns])), span) + 2.0**-1022
    assert abs(got - float(want)) <= allowed


def assert_push_of_a_constant_within_the_oracle_bound(map_, value):
    f = PAF.constant(map_.domain.lo, map_.domain.hi, value)
    got = frobenius_perron(map_, f)
    assert oracle.l1_distance(got, oracle.push(map_, oracle.exact(f))) <= oracle.bound(1, value, oracle.width(map_))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(b): the prune tolerance PRUNE_ABS is absolute, so a "
                   "function below it is pruned into a wrong one")
@pytest.mark.parametrize("map_, value", [(tent_map(1.3), 5e-14), (SHORT_IMAGE_MAP, 1e-14)], ids=["tent1.3", "short"])
def test_push_of_a_constant_below_the_prune_tolerance(map_, value):
    """Under tent a = 1.3 the prune joins the zero pad of a push of 5e-14 to
    the cells beside it: one piece with 2/1.3 = 1.538 times the mass.  Under
    SHORT_IMAGE_MAP the push of 1e-14 is the zero function."""
    assert_push_of_a_constant_within_the_oracle_bound(map_, value)


def test_push_of_a_constant_at_the_prune_tolerance():
    """At 1e-13 the pad keeps its own cell, and the push is exact up to rounding."""
    assert_push_of_a_constant_within_the_oracle_bound(tent_map(1.3), 1e-13)

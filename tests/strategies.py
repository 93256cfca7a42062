"""Hypothesis strategies for random piecewise-affine functions, maps and
orbit inputs, shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from ergclt.maps import Interval, PiecewiseLinearMap, tent_map, three_branch_map
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.transfer import frobenius_perron


@st.composite
def breakpoints(draw, lo, hi):
    """Sorted grid over [lo, hi].  Some inner points get a twin 1e-15..1e-14
    above them, the scale at which the algebra merges breakpoints."""
    inner = draw(st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True), max_size=6))
    pts = list(inner)
    for x in inner:
        k = draw(st.integers(0, 10))  # 0: no twin
        if k and x + k * 1e-15 < hi:
            pts.append(x + k * 1e-15)
    return np.unique(np.array([lo, hi] + pts))


@st.composite
def affine_functions(draw, lo, hi):
    bp = draw(breakpoints(lo, hi))
    coeffs = st.lists(st.floats(-5.0, 5.0), min_size=len(bp) - 1, max_size=len(bp) - 1)
    return PAF(bp, draw(coeffs), draw(coeffs))


@st.composite
def spans(draw, lo=-1.0, hi=1.0):
    """A sub-interval [a, b] of [lo, hi]; often the whole of it, sometimes
    with an end 1e-15..1e-14 inside an end of the whole."""
    ends = st.one_of(
        st.just(None),
        st.integers(1, 10),
        st.floats(lo, hi, exclude_min=True, exclude_max=True),
    )
    a, b = draw(ends), draw(ends)
    a = lo if a is None else lo + a * 1e-15 if isinstance(a, int) else a
    b = hi if b is None else hi - b * 1e-15 if isinstance(b, int) else b
    a, b = min(a, b), max(a, b)
    if b - a < 1e-9:  # room for inner breakpoints
        a, b = lo, hi
    return a, b


@st.composite
def partial_functions(draw, lo=-1.0, hi=1.0):
    """A random piecewise-affine function on a random sub-interval of [lo, hi]."""
    a, b = draw(spans(lo, hi))
    return draw(affine_functions(a, b))


@st.composite
def functions_through(draw, points, lo=-1.0, hi=1.0):
    """A random piecewise-affine function on a sub-interval of [lo, hi] whose
    grid also holds some of `points` (e.g. branch edges and their images),
    each possibly moved 1e-15..1e-14 up."""
    f = draw(partial_functions(lo, hi))
    extra = [x + draw(st.integers(0, 10)) * 1e-15 for x in draw(st.lists(st.sampled_from(points), max_size=4))]
    bp = np.unique(np.concatenate([f.breakpoints, [x for x in extra if f.lo < x < f.hi]]))
    coeffs = st.lists(st.floats(-5.0, 5.0), min_size=len(bp) - 1, max_size=len(bp) - 1)
    return PAF(bp, draw(coeffs), draw(coeffs))


# Two branches on [0, 1] whose images both stop short of both domain ends.
SHORT_IMAGE_MAP = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 0.5), 1.2, 0.1), ((0.5, 1.0), -1.2, 1.3)])


# Three branches on [0, 1], the last with slope 256: a push reads f through
# an inverse slope of 1/256, so the rounding of an output midpoint, 256
# times smaller in f's coordinate, can take a cell of f beside its own.
STEEP_MAP = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 0.5), 2.0, 0.0), ((0.5, 255 / 256), -2.0, 2.0),
                                                    ((255 / 256, 1.0), 256.0, -255.0)])


def steep_sliver_grid(b):
    """A grid on STEEP_MAP's domain through b in (255/256, 1) and through the
    point whose image under the slope-2 branch lies 1.5e-14 below x, the
    preimage of b under the steep branch: x and that image bound an output
    cell of the push, and b is a breakpoint the steep branch reads there."""
    x = (b - 255 / 256) * 256
    return np.array([0.0, (x - 1.5e-14) / 2, b, 1.0])


@st.composite
def maps_and_functions_through(draw):
    """A tent map with a in (1, 2], the three-branch map or SHORT_IMAGE_MAP,
    and a function whose grid may hold the branch edges, their images, or
    near twins."""
    kind = draw(st.sampled_from(["tent", "three-branch", "short-image"]))
    if kind == "tent":
        map_ = tent_map(draw(st.floats(1.0 + 2e-6, 2.0)))
    else:
        map_ = three_branch_map() if kind == "three-branch" else SHORT_IMAGE_MAP
    points = sorted({x for (p, s, c) in map_.branches for x in (p.lo, p.hi, s * p.lo + c, s * p.hi + c)})
    return map_, draw(functions_through(points, map_.domain.lo, map_.domain.hi))


@st.composite
def observables_on(draw, map_):
    """A random step or affine function on map_'s domain, whose grid may hold
    the branch edges and near twins."""
    edges = sorted({x for (p, _, _) in map_.branches for x in (p.lo, p.hi)})
    f = draw(functions_through(edges, map_.domain.lo, map_.domain.hi))
    return PAF.step(f.breakpoints, f.intercepts) if draw(st.booleans()) else f


@st.composite
def orbit_cases(draw):
    """A map for the orbit engines (tent a = 2 or the three-branch map, which
    run the bit engine, or a tent with a in (1, 2), which runs the float
    engine), a function from observables_on and initial points.  Some
    initial points sit exactly on a cut of map or function and some one ulp
    to either side of one."""
    kind = draw(st.sampled_from(["tent2", "three-branch", "tent"]))
    if kind == "tent":
        map_ = tent_map(draw(st.floats(1.0 + 2e-6, 2.0, exclude_max=True)))
    else:
        map_ = tent_map(2.0) if kind == "tent2" else three_branch_map()
    lo, hi = map_.domain.lo, map_.domain.hi
    f = draw(observables_on(map_))
    edges = [x for (p, _, _) in map_.branches for x in (p.lo, p.hi)]
    cuts = [x for x in np.concatenate([edges, f.breakpoints]) if lo <= x <= hi]
    on_cuts = draw(st.lists(st.sampled_from(cuts), max_size=6))
    near = [float(np.clip(np.nextafter(x, d), lo, hi)) for x in on_cuts for d in (-np.inf, np.inf)]
    free = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    return map_, f, np.array(free + on_cuts + near)


@st.composite
def plan_cases(draw):
    """A tent map with a in (1, 2], the three-branch map, SHORT_IMAGE_MAP or
    STEEP_MAP, and the grid of a function through the branch edges, their
    images or near twins, pushed 0-2 times so that it may be an iterate's."""
    map_ = draw(st.sampled_from([three_branch_map(), SHORT_IMAGE_MAP, STEEP_MAP])
                | st.floats(1.0 + 2e-6, 2.0).map(tent_map))
    points = sorted({x for (p, s, c) in map_.branches for x in (p.lo, p.hi, s * p.lo + c, s * p.hi + c)})
    f = draw(functions_through(points, map_.domain.lo, map_.domain.hi))
    for _ in range(draw(st.integers(0, 2))):
        f = frobenius_perron(map_, f)
    return map_, f.breakpoints

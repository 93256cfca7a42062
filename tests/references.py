"""The orbit engines as they were before piece lookup became a count of
cuts: binary searches in float space and one uint64 -> float conversion per
bit-engine step.  The property tests hold the package to these bytes."""

import numpy as np

from ergclt.simulate import _STREAM_BITS, _TWO64, _dyadic_engine_params, _rng


def branch_index(map_, x):
    edges = np.array([map_.branches[0][0].lo] + [piece.hi for (piece, _, _) in map_.branches])
    idx = edges.searchsorted(x, side="right") - 1
    return np.minimum(np.maximum(idx, 0, out=idx), len(map_.branches) - 1, out=idx)


def step(map_, x):
    idx = branch_index(map_, x)
    out = map_._slopes[idx] * x + map_._intercepts[idx]
    np.maximum(out, map_.domain.lo, out=out)
    return np.minimum(out, map_.domain.hi, out=out)


def orbit_points(map_, inits, seed, n_steps):
    """Yield the points x_0, ..., x_(n_steps-1) of every path's orbit."""
    p = _dyadic_engine_params(map_)
    x = np.array(inits, dtype=float)
    if p is not None:
        bits = _rng(seed, _STREAM_BITS)
        u0 = np.clip((x - p["lo"]) / p["width"], 0.0, 1.0 - 2.0**-53)
        low = bits.integers(0, _TWO64, size=len(x), dtype=np.uint64) & np.uint64(0x7FF)
        w = (u0 * 2.0**64).astype(np.uint64) ^ low
        flip = np.zeros(len(x), dtype=np.uint64)
    for k in range(n_steps):
        if p is not None:
            x = p["lo"] + p["width"] * (w.astype(np.float64) * 2.0**-64)
        yield x
        if k + 1 == n_steps:
            return
        if p is None:
            x = step(map_, x)
            continue
        if k % 64 == 0:
            row = bits.integers(0, _TWO64, size=len(x), dtype=np.uint64)
        idx = np.searchsorted(p["thresholds"], w, side="right")
        bit = (row >> np.uint64(63 - k % 64)) & np.uint64(1)
        bit ^= flip
        doubled = (w << np.uint64(1)) | bit
        off = p["offset"][idx]
        neg = p["neg"][idx]
        w = np.where(neg, off - doubled - np.uint64(1), doubled + off)
        flip = np.where(neg, flip ^ np.uint64(1), flip)


def evaluator(f):
    bp, sl, ic = f.breakpoints, f.slopes, f.intercepts
    last = len(sl) - 1
    if last == 0:
        s0, c0 = sl[0], ic[0]
        return lambda x: s0 * x + c0
    inner = bp[1:-1]

    def ev(x):
        idx = inner.searchsorted(x, side="right")
        return sl[idx] * x + ic[idx]

    return ev


def orbit(map_, f, inits, seed, n_steps):
    """The reference for `simulate._orbit`: f at each point of orbit_points."""
    ev = evaluator(f)
    return (ev(x) for x in orbit_points(map_, inits, seed, n_steps))

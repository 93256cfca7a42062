"""Path simulation, goodness-of-fit machinery, and the maximal inequality."""

import dataclasses
import itertools
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

import references as ref
from ergclt import simulate
from ergclt.clt import Observable, tent_system, three_branch_system, variance_profile
from ergclt.maps import Interval, PiecewiseLinearMap, cut_index, tent_map, tent_support_cycle, three_branch_map
from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.piecewise import integrate_product
from ergclt.simulate import (
    _STREAM_BITS,
    _TWO64,
    CltSample,
    _bit_cells,
    _cell_table,
    _dyadic_engine_params,
    _merged_cells,
    _orbit,
    _rng,
    _word_cells,
    _word_cuts,
    _word_x,
    ks_statistic,
    limit_law_check,
    maximal_inequality_sweep,
    mixture_normal_cdf,
    partial_sum_paths,
    sample_from_density,
)

from strategies import observables_on, orbit_cases


def two_sample_ks(x, y):
    allv = np.sort(np.concatenate([x, y]))
    fx = np.searchsorted(np.sort(x), allv, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), allv, side="right") / len(y)
    return float(np.abs(fx - fy).max())


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_uniform_sampling_ks():
    u = sample_from_density(PAF.constant(0, 1, 1.0), 10000, 1)
    rep = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
    assert rep.ks_stat <= 0.02


def test_sample_mean_under_symmetric_density():
    sys2 = tent_system(2.0)
    y = sample_from_density(sys2.density, 40000, 2)
    assert abs(y.mean()) <= 3.0 / math.sqrt(len(y))


def test_sample_component_masses():
    sys13 = tent_system(1.3)
    y = sample_from_density(sys13.density, 20000, 3)
    for iv in tent_support_cycle(1.3).intervals:
        frac = np.mean((y >= iv.lo) & (y <= iv.hi))
        stderr = math.sqrt(0.25 / len(y))
        assert abs(frac - 0.5) <= 3 * stderr


def test_sampling_from_affine_density():
    # triangular density 2x on [0, 1]: CDF x^2, quantile sqrt(u)
    tri = PAF.affine(0.0, 1.0, 2.0, 0.0)
    y = sample_from_density(tri, 20000, 4)
    rep = ks_statistic(y, lambda x: np.clip(x, 0, 1) ** 2)
    assert rep.ks_stat <= 0.02


# ----------------------------------------------------------------------
# path generation
# ----------------------------------------------------------------------

def test_single_step_path_is_observable_value():
    sys2 = tent_system(2.0)
    inits = np.array([0.3, -0.7])
    sample = partial_sum_paths(sys2.map, sys2.observable, 1, [1.0], inits, 5)
    np.testing.assert_allclose(sample.paths[:, 0], sys2.observable.f(inits), atol=1e-15)


def test_time_zero_is_empty_sum():
    sys2 = tent_system(2.0)
    inits = np.array([0.3, -0.7, 0.1])
    sample = partial_sum_paths(sys2.map, sys2.observable, 64, [0.0, 0.01, 1.0], inits, 5)
    assert np.all(sample.paths[:, 0] == 0.0)
    assert np.all(sample.paths[:, 1] == 0.0)  # t < 1/n is the empty sum too


def test_reproducibility_bit_identical():
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 100, 9)
    s1 = partial_sum_paths(tb.map, tb.observable, 256, [0.5, 1.0], inits, 9)
    s2 = partial_sum_paths(tb.map, tb.observable, 256, [0.5, 1.0], inits, 9)
    assert np.array_equal(s1.paths, s2.paths)


def test_init_outside_domain_rejected():
    sys2 = tent_system(2.0)
    with pytest.raises(ValueError):
        partial_sum_paths(sys2.map, sys2.observable, 8, [1.0], np.array([1.5]), 0)


def test_dyadic_engine_detection():
    assert _dyadic_engine_params(tent_map(2.0)) is not None
    assert _dyadic_engine_params(three_branch_map()) is not None
    assert _dyadic_engine_params(tent_map(1.3)) is None


def test_stationarity_along_orbit():
    """Distribution of h at step n/2 matches the initial distribution (h is
    the coordinate less its mean, so the KS distance is that of the points)."""
    sys2 = tent_system(2.0)
    n = 512
    inits = sample_from_density(sys2.density, 10000, 11)
    values = _orbit(sys2.map, sys2.observable.f, inits, 11, n)
    start = next(values)
    mid = next(itertools.islice(values, n // 2 - 1, None))
    assert two_sample_ks(start, mid) <= 0.03


def reference_partial_sums(map_, h, n, t_grid, inits, seed):
    """Partial sums from the bit engine as it drew its tail bits before: the
    whole (n/64 + 2) x paths block up front, and a step after every point."""
    p = _dyadic_engine_params(map_)
    u0 = np.clip((inits - p["lo"]) / p["width"], 0.0, 1.0 - 2.0**-53)
    w = (u0 * 2.0**64).astype(np.uint64)
    flip = np.zeros(len(inits), dtype=np.uint64)
    blocks = max((n + 63) // 64, 1)
    words = _rng(seed, _STREAM_BITS).integers(0, _TWO64, size=(blocks + 1, len(inits)), dtype=np.uint64)
    w ^= words[0] & np.uint64(0x7FF)
    words = words[1:]
    heval = ref.evaluator(h.f)
    checkpoints = np.floor(n * np.asarray(t_grid) + 1e-12).astype(int)
    out = np.zeros((len(inits), len(t_grid)))
    s = np.zeros(len(inits))
    for k in range(max(checkpoints)):
        s += heval(p["lo"] + p["width"] * (w.astype(np.float64) * 2.0**-64))
        idx = np.searchsorted(p["thresholds"], w, side="right")
        bit = ((words[k // 64] >> np.uint64(63 - k % 64)) & np.uint64(1)) ^ flip
        doubled = (w << np.uint64(1)) | bit
        off, neg = p["offset"][idx], p["neg"][idx]
        w = np.where(neg, off - doubled - np.uint64(1), doubled + off)
        flip = np.where(neg, flip ^ np.uint64(1), flip)
        out[:, checkpoints == k + 1] = (s * (1.0 / math.sqrt(n)))[:, None]
    return out


@pytest.mark.parametrize("system", [lambda: tent_system(2.0), three_branch_system], ids=["tent2", "three_branch"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_bit_engine_matches_block_draw(system, n):
    """Tail bits drawn one 64-step row at a time give the bytes of the old
    up-front block, across row boundaries."""
    s = system()
    inits = sample_from_density(s.density, 300, 61)
    t_grid = [0.0, 0.25, 0.5, 1.0]
    got = partial_sum_paths(s.map, s.observable, n, t_grid, inits, 61).paths
    assert got.tobytes() == reference_partial_sums(s.map, s.observable, n, t_grid, inits, 61).tobytes()


def test_bit_engine_memory_bounded_in_steps():
    """Traced peak memory of a partial-sum run grows with paths, not with
    steps x paths: drawing every tail bit up front would add about 1 MiB
    from 2^10 to 2^14 steps at 512 paths."""
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 512, 67)
    partial_sum_paths(tb.map, tb.observable, 64, [1.0], inits, 67)  # warm caches
    peaks = []
    for n in (2**10, 2**14):
        tracemalloc.start()
        try:
            partial_sum_paths(tb.map, tb.observable, n, [0.5, 1.0], inits, 67)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024


@given(orbit_cases(), st.integers(1, 140), st.integers(0, 2**32))
def test_property_partial_sums_match_reference(case, n, seed):
    """Counted cuts in word space (bit engine) or float space (float engine)
    and intercepts read off the cell give the bytes of binary search on the
    float points, for steps and affine functions alike."""
    map_, f, inits = case
    h = Observable(f=f, centered_wrt="none")
    t_grid = [0.0, 0.3, 0.5, 1.0]
    got = partial_sum_paths(map_, h, n, t_grid, inits, seed).paths
    with mock.patch.object(simulate, "_orbit", ref.orbit):
        want = partial_sum_paths(map_, h, n, t_grid, inits, seed).paths
    assert got.tobytes() == want.tobytes()


_MAXIMAL_SYSTEMS = {"three-branch": three_branch_system, "tent2": lambda: tent_system(2.0),
                    "tent1.3": lambda: tent_system(1.3), "tent1.8": lambda: tent_system(1.8)}


@given(st.sampled_from(sorted(_MAXIMAL_SYSTEMS)), st.data())
def test_property_maximal_reports_match_reference(name, data):
    """Every report of a maximal-inequality sweep has the repr it had with
    the searchsorted engines, for random centered steps and affine
    functions."""
    s = _MAXIMAL_SYSTEMS[name]()
    map_ = s.map
    lo, hi = map_.domain.lo, map_.domain.hi
    f = ref.embed(data.draw(observables_on(map_)), lo, hi)
    h = Observable(f=f - PAF.constant(lo, hi, integrate_product([f, s.density])), centered_wrt=name)
    ns = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    seed = data.draw(st.integers(0, 2**32))
    got = maximal_inequality_sweep(map_, h, s.transfer, s.density, ns, 50, seed)
    with mock.patch.object(simulate, "_orbit", ref.orbit):
        want = maximal_inequality_sweep(map_, h, s.transfer, s.density, ns, 50, seed)
    assert repr(got) == repr(want)


@given(st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]), st.data())
def test_word_cuts_bracket_each_point(domain, data):
    """The cut c of a point b is the first word whose point reaches b: the
    word c - 1 lies below b and the word c at or above it."""
    lo, hi = domain
    width = hi - lo
    b = data.draw(st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi, lo + width / 4, (lo + hi) / 2])))
    b = float(np.nextafter(b, data.draw(st.sampled_from([b, -np.inf, np.inf]))))  # b or a neighbour
    cuts = _word_cuts([b], lo, width)
    top = _word_x(np.array([_TWO64 - 1], dtype=np.uint64), lo, width)[0]
    if b > top:
        assert len(cuts) == 0
        return
    c = int(cuts[0])
    assert _word_x(np.array([c], dtype=np.uint64), lo, width)[0] >= b
    if c > 0:
        assert _word_x(np.array([c - 1], dtype=np.uint64), lo, width)[0] < b


def _near(c: int):
    return [c + d for d in (-1, 0, 1) if 0 <= c + d < _TWO64]


@st.composite
def word_cut_sets(draw):
    """Sorted uint64 cut sets built from random words, bucket starts of every
    table width, near twins 256 apart, runs of cuts too close for any bucket
    to separate, 0 and 2^64 - 1; repeats are kept."""
    start = st.builds(lambda b, t: (t % (1 << b)) << (64 - b), st.integers(1, 12), st.integers(0, 2**12))
    word = st.integers(0, _TWO64 - 1)
    cut = st.one_of(word, start, st.sampled_from([0, _TWO64 - 1, 2**62, 2**63, 3 * 2**62]))
    cuts = draw(st.lists(cut, max_size=8))
    twins = draw(st.lists(cut, max_size=3))
    cuts += [c + 256 for c in twins if c + 256 < _TWO64] + twins
    run = draw(st.one_of(st.just([]), st.builds(lambda c, k: [c + 256 * i for i in range(k)],
                                                st.integers(0, _TWO64 - 2**20), st.integers(2, 5))))
    return sorted(cuts + run)


@given(word_cut_sets(), st.lists(st.integers(0, _TWO64 - 1), max_size=20))
def test_bucket_table_gives_the_cut_count(cuts, words):
    """The bucket table reads the cell that `cut_index` counts, at 0, at
    2^64 - 1, at each cut and its two neighbours, and at random words."""
    c = np.array(cuts, dtype=np.uint64)
    w = np.array(sorted({0, _TWO64 - 1, *words, *(x for k in cuts for x in _near(k))}), dtype=np.uint64)
    table = _cell_table(c)
    assert _word_cells(table, w).tolist() == cut_index(c, w).tolist()
    shift, base, inner = table
    assert len(base) <= 2**12 and inner.shape[1] == len(base) == 1 << (64 - int(shift))


@pytest.mark.parametrize("cuts, buckets, inside", [
    ([], 2, 0),
    ([0], 2, 0),
    ([_TWO64 - 1], 2, 1),
    ([2**63], 2, 0),
    ([2**62 - 256, 2**62, 2**63 - 512, 3 * 2**62 - 1024, 3 * 2**62], 4, 1),   # three-branch
    ([2**63 - 256, 2**63, 2**63 + 256], 2, 1),
    ([5, 261, 517], 2, 3),                  # no table of 2^12 buckets separates them
    ([2**52 * k for k in range(1, 4096)], 4096, 0),
], ids=["empty", "zero", "top", "tent2", "three-branch", "near-twins", "k3", "every-start"])
def test_bucket_table_size(cuts, buckets, inside):
    """The fewest buckets that hold the fewest inner cuts, capped at 2^12,
    and the cells of cut_index at every cut and its neighbours."""
    c = np.array(cuts, dtype=np.uint64)
    table = _cell_table(c)
    assert table[2].shape == (inside, buckets)
    w = np.array([0, _TWO64 - 1, *(x for k in cuts for x in _near(k))], dtype=np.uint64)
    assert _word_cells(table, w).tolist() == cut_index(c, w).tolist()


@pytest.mark.parametrize("system, cuts", [(lambda: tent_system(2.0), [2**63]),
                                          (three_branch_system, [2**62 - 256, 2**62, 2**63 - 512,
                                                                 3 * 2**62 - 1024, 3 * 2**62])],
                         ids=["tent2", "three_branch"])
def test_bit_engine_word_cuts_of_the_systems(system, cuts):
    """The word cuts that the bit engine reads for each system's observable."""
    s = system()
    assert _bit_cells(_dyadic_engine_params(s.map), s.observable.f)[0].tolist() == cuts


@pytest.mark.parametrize("system", [lambda: tent_system(2.0), three_branch_system, lambda: tent_system(1.3)],
                         ids=["tent2", "three_branch", "tent1.3"])
@pytest.mark.parametrize("kind", ["own", "step", "affine"])
def test_orbit_yields_new_arrays(system, kind):
    """A value array, once yielded, is not written by later steps, so a
    consumer may keep it: for the system's observable, a step function and a
    three-piece affine function."""
    s = system()
    bp = [s.map.domain.lo, 0.1, 0.6, s.map.domain.hi]
    f = {"own": s.observable.f, "step": PAF.step(bp, [1.0, -2.0, 0.5]),
         "affine": PAF(bp, [1.0, 0.0, -1.0], [0.5, 1.0, 2.0])}[kind]
    inits = sample_from_density(s.density, 200, 71)
    kept, copies = [], []
    for value in _orbit(s.map, f, inits, 71, 130):
        kept.append(value)
        copies.append(value.copy())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, copies))


# Float-engine maps whose float image leaves the domain by about 1e-10 at
# the middle edge (2 * 0.5 + 1e-10 > 1), which the map's own check accepts:
# their orbits need the clamp.  The second has slopes ±1.9 on [1, 2], where
# no bound is a zero.
_LEAKY_MAPS = [PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 0.5), 2.0, 1e-10), ((0.5, 1.0), -2.0, 2.0 + 1e-10)]),
               PiecewiseLinearMap(Interval(1.0, 2.0), [((1.0, 1.5), 1.9, -0.85 + 1e-10),
                                                       ((1.5, 2.0), -1.9, 4.85 + 1e-10)])]


def assert_same_orbit(map_, f, inits, seed, n_steps):
    """_orbit yields the bytes of `references.orbit`, which clamps every step."""
    got = [v.tobytes() for v in _orbit(map_, f, inits, seed, n_steps)]
    want = [v.tobytes() for v in ref.orbit(map_, f, inits, seed, n_steps)]
    assert got == want


@pytest.mark.parametrize("map_", _LEAKY_MAPS, ids=["unit", "shifted"])
def test_float_engine_keeps_the_clamp_where_the_float_image_leaves_the_domain(map_):
    """From the midpoint and the float below it the first step lands past the
    upper bound and is clamped there; orbits that skipped the clamp would
    read other bytes."""
    lo, hi = map_.domain.lo, map_.domain.hi
    mid = map_.branches[1][0].lo
    assert _dyadic_engine_params(map_) is None
    f = PAF.affine(lo, hi, 1.0, 0.0)
    inits = np.concatenate(([mid, np.nextafter(mid, lo)], np.random.default_rng(3).uniform(lo, hi, 30)))
    assert [float(v[0]) for v in ref.orbit(map_, f, inits, 3, 2)] == [mid, hi]
    assert_same_orbit(map_, f, inits, 3, 80)


@pytest.mark.parametrize("f", [PAF.step([-1.0, 0.0, 1.0], [1.0, -1.0]), PAF.affine(-1.0, 1.0, 1.0, 0.0)],
                         ids=["step", "identity"])
def test_maximal_sweep_with_initial_points_outside_the_domain(f):
    """nu on [-1.5, 1.5] draws initial points past the tent's domain, which the
    float engine must clamp back after the first step (unclamped, they run
    off to -inf); the reports match the reference orbit and its running max
    of |S| bit for bit, for a step observable and the identity."""
    s = tent_system(1.3)
    nu = PAF.constant(-1.5, 1.5, 1.0 / 3.0)
    h = Observable(f=f, centered_wrt="nu")
    trials, seed, ns = 300, 13, [8, 64]
    inits = sample_from_density(nu, trials, seed)
    assert np.any(np.abs(inits) > 1.0)
    got = maximal_inequality_sweep(s.map, h, s.transfer, nu, ns, trials, seed)
    with mock.patch.object(simulate, "_orbit", ref.orbit):
        want = maximal_inequality_sweep(s.map, h, s.transfer, nu, ns, trials, seed)
    assert repr(got) == repr(want)
    sums = np.cumsum(list(ref.orbit(s.map, h.f, inits, seed, ns[-1])), axis=0)
    for rep, n in zip(got, ns):
        m = np.max(np.abs(sums[:n]), axis=0)
        assert rep.lhs == math.sqrt(float((m * m).mean()))


@pytest.mark.parametrize("f", [PAF.constant(0.0, 1.0, 0.7), PAF.affine(0.0, 1.0, 2.0, -1.0)],
                         ids=["constant", "affine"])
def test_one_branch_map_has_no_cuts(f):
    """A one-branch contraction with a one-piece observable merges no cuts:
    every point is in the one cell."""
    map_ = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 1.0), 0.5, 0.25)])
    cuts, branch, piece = _merged_cells(map_._inner_edges, f.breakpoints[1:-1], -np.inf)
    assert len(cuts) == 0 and branch.tolist() == piece.tolist() == [0]
    assert_same_orbit(map_, f, np.random.default_rng(5).uniform(0.0, 1.0, 20), 5, 40)


def test_float_engine_keeps_the_clamp_at_a_zero_bound():
    """Every image stays in [0, 1], but from x_0 = -0.0 the step gives
    0.5 * -0.0 + -0.0 = -0.0, which the clamp turns into +0.0; an observable
    with intercept -0.0 shows the sign."""
    map_ = PiecewiseLinearMap(Interval(0.0, 1.0), [((0.0, 1.0), 0.5, -0.0)])
    f = PAF.affine(0.0, 1.0, 1.0, -0.0)
    want = [np.array([x]).tobytes() for x in (-0.0, 0.0)]
    assert [v.tobytes() for v in ref.orbit(map_, f, np.array([-0.0]), 0, 2)] == want
    assert_same_orbit(map_, f, np.array([-0.0, 0.0, 0.3]), 0, 4)


def test_marginal_off_the_grid_names_t_and_the_grid():
    sample = CltSample(n=4, t_grid=np.array([0.5, 1.0]), paths=np.array([[1.0, 2.0], [3.0, 4.0]]),
                       inits=np.zeros(2))
    assert sample.marginal(1.0).tolist() == [2.0, 4.0]
    with pytest.raises(ValueError, match=r"t=0\.3 is not a grid time of \[0\.5, 1\.0\]"):
        sample.marginal(0.3)


def test_nan_inputs_rejected():
    """NaN fails every domain check: as an initial point and as a grid time."""
    tb = three_branch_system()
    with pytest.raises(ValueError, match="outside the map domain"):
        partial_sum_paths(tb.map, tb.observable, 8, [1.0], np.array([0.3, np.nan]), 0)
    with pytest.raises(ValueError, match="grid times"):
        partial_sum_paths(tb.map, tb.observable, 8, [0.5, np.nan], np.array([0.3]), 0)


def test_csv_round_trip(tmp_path):
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 10, 13)
    sample = partial_sum_paths(tb.map, tb.observable, 32, [0.5, 1.0], inits, 13)
    path = tmp_path / "sample.csv"
    sample.to_csv(str(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "path_id,t,value"
    assert len(rows) == 1 + 10 * 2
    pid, t, v = rows[1].split(",")
    assert float(v) == sample.paths[0, 0]


def test_csv_rename_failure_keeps_the_old_file(tmp_path, monkeypatch):
    """The sample CSV goes through a temp file and a rename: when the rename
    fails, the CSV already there is left as it was and no temp file remains."""
    sample = simulate.CltSample(n=8, t_grid=np.array([1.0]), paths=np.array([[0.5]]), inits=np.array([0.0]))
    out = tmp_path / "sample.csv"
    out.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        sample.to_csv(str(out))
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sample.csv"]


@pytest.mark.parametrize("shape", [(4, 3), (1, 1), (0, 2), (3, 0)])
def test_csv_matches_row_by_row_reference(tmp_path, shape):
    """The one-write table has the bytes of the row-at-a-time writer, signed
    zeros, infinities, NaN and subnormals included."""
    special = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1.0 / 3.0, -1e300, 123456789.0]
    paths = np.resize(np.array(special), shape[0] * shape[1]).reshape(shape)
    sample = simulate.CltSample(n=8, t_grid=np.linspace(0.0, 1.0, shape[1]), paths=paths,
                               inits=np.zeros(shape[0]))
    sample.to_csv(str(tmp_path / "new.csv"))
    ref.sample_csv(sample, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n_paths", [2, 4097, 10_000])
def test_csv_blocks_match_one_text(tmp_path, n_paths):
    """The CSV written in blocks of `cli._BLOCK_ROWS` rows has the bytes of
    the whole text formatted at once, across block ends."""
    tb = three_branch_system()
    inits = sample_from_density(tb.density, n_paths, 5)
    sample = partial_sum_paths(tb.map, tb.observable, 64, [0.25, 0.5, 1.0], inits, 5)
    sample.to_csv(str(tmp_path / "new.csv"))
    assert (tmp_path / "new.csv").read_bytes() == ref.sample_csv_text(sample).encode("utf-8")


def test_csv_memory_bounded(tmp_path):
    """At 200,000 paths and one grid time (a 6 MB file) `to_csv` traces at
    most 10 MiB: it never holds the whole text or a list of its rows (40.9
    MiB when it did)."""
    paths = np.random.default_rng(0).standard_normal((200_000, 1))
    sample = simulate.CltSample(n=8, t_grid=np.array([1.0]), paths=paths, inits=np.zeros(200_000))
    tracemalloc.start()
    try:
        sample.to_csv(str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 10.0


# ----------------------------------------------------------------------
# KS statistic and mixture CDF
# ----------------------------------------------------------------------

def test_ks_on_exact_quantiles():
    n = 1000
    q = (np.arange(1, n + 1) - 0.5) / n
    from scipy.special import ndtri
    x = ndtri(q)
    rep = ks_statistic(x, ndtr)
    assert rep.ks_stat <= 0.5 / n + 1e-12


def test_ks_degenerate_samples():
    rep = ks_statistic(np.zeros(100), ndtr)
    assert rep.ks_stat >= 0.5


def test_ks_normal_oracle():
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.standard_normal(10000)
    rep = ks_statistic(x, ndtr)
    assert rep.ks_stat <= 0.025


def test_ks_needs_two_samples():
    with pytest.raises(ValueError):
        ks_statistic(np.array([1.0]), ndtr)


def test_mixture_cdf_symmetry_and_reduction():
    comps = [(0.5, 1.0), (0.5, 4.0)]
    assert mixture_normal_cdf(comps, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    single = mixture_normal_cdf([(1.0, 2.0)], 1.0, np.array([0.3, -0.4]))
    np.testing.assert_allclose(single, ndtr(np.array([0.3, -0.4]) / math.sqrt(2.0)), atol=1e-14)


def test_phi_within_2_pow_minus_52_of_ndtr():
    """Phi from `math.erfc` stays within 2^-52 absolute of scipy's ndtr on
    [-40, 40], on a grid that is dense near 0."""
    x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), np.linspace(-1e-3, 1e-3, 2_001),
                        np.geomspace(1e-300, 40.0, 2_000), -np.geomspace(1e-300, 40.0, 2_000)])
    assert np.abs(mixture_normal_cdf([(1.0, 1.0)], 1.0, x) - ndtr(x)).max() <= 2.0**-52


def test_mixture_density_at_zero():
    """Central density of the half-half mixture of variances 1 and 4 equals
    (1/2)(2 pi)^(-1/2) + (1/2)(8 pi)^(-1/2), checked by finite differences."""
    comps = [(0.5, 1.0), (0.5, 4.0)]
    eps = 1e-6
    dens = (mixture_normal_cdf(comps, 1.0, eps) - mixture_normal_cdf(comps, 1.0, -eps)) / (2 * eps)
    expected = 0.5 / math.sqrt(2 * math.pi) + 0.5 / math.sqrt(8 * math.pi)
    assert dens == pytest.approx(expected, abs=1e-8)


def test_mixture_cdf_validation():
    with pytest.raises(ValueError):
        mixture_normal_cdf([(0.5, 1.0)], 1.0, 0.0)
    with pytest.raises(ValueError):
        mixture_normal_cdf([(1.0, 1.0)], 0.0, 0.0)


# ----------------------------------------------------------------------
# limit-law checks
# ----------------------------------------------------------------------

def test_limit_law_three_branch_moderate_scale():
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 2000, 17)
    sample = partial_sum_paths(tb.map, tb.observable, 2048, [0.5, 1.0], inits, 17)
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=16)
    reports = limit_law_check(sample, prof)
    assert len(reports) == 6  # (mixture + 2 components) x 2 grid times
    assert all(r.ks_stat <= 0.07 for r in reports)


def test_limit_law_zero_observable_flagged():
    tb = three_branch_system()
    zero = Observable(f=PAF.constant(0, 1, 0.0), centered_wrt="three_branch")
    inits = sample_from_density(tb.density, 50, 19)
    sample = partial_sum_paths(tb.map, zero, 64, [1.0], inits, 19)
    prof = variance_profile(zero, tb.transfer, tb.components, J=4)
    reports = limit_law_check(sample, prof)
    assert all("skipped" in r.note for r in reports)
    assert all(r.ks_stat == 0.0 for r in reports)


def test_limit_law_rejects_unassigned_inits():
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 50, 23)
    sample = partial_sum_paths(tb.map, tb.observable, 64, [1.0], inits, 23)
    prof = variance_profile(tb.observable, tb.transfer, [tb.components[0]], J=4)
    with pytest.raises(ValueError):
        limit_law_check(sample, prof)


def _as_written(reports):
    """`repr` of the reports with each target as JSON holds it, where the
    tuples and the lists of a component's intervals are the same arrays."""
    return repr([dataclasses.replace(r, target=json.loads(json.dumps(r.target))) for r in reports])


def _limit_law_cases():
    tb = three_branch_system()
    zero = Observable(f=PAF.constant(0, 1, 0.0), centered_wrt="three_branch")
    left = np.linspace(0.01, 0.49, 40)
    for seed in (3, 5, 11):
        yield tb.map, tb.observable, tb, sample_from_density(tb.density, 300, seed), seed
    yield tb.map, zero, tb, sample_from_density(tb.density, 60, 19), 19  # both skip notes
    yield tb.map, tb.observable, tb, left, 37                            # right component: no path
    yield tb.map, tb.observable, tb, np.append(left, 0.7), 41            # right component: one path
    yield tb.map, tb.observable, tb, np.append(left, [0.5, 0.5, 0.75, 0.9]), 43  # shared boundary 0.5
    tent = tent_system(1.3)
    yield tent.map, tent.observable, tent, sample_from_density(tent.density, 300, 47), 47


@pytest.mark.parametrize("case", range(8))
def test_limit_law_check_matches_two_branch_reference(case):
    """One path over the targets (the mixture, then each component as a
    one-term mixture) gives the reports of the two-branch check, on a grid
    that includes t = 0."""
    map_, h, system, inits, seed = list(_limit_law_cases())[case]
    sample = partial_sum_paths(map_, h, 256, [0.0, 0.25, 0.5, 1.0], inits, seed)
    prof = variance_profile(h, system.transfer, system.components, J=8)
    want = ref.limit_law_check(sample, prof, inits)
    assert _as_written(limit_law_check(sample, prof)) == _as_written(want)


def test_variance_consistency_with_profile():
    """Law of total variance: empirical var of the endpoint marginal matches
    the weight-averaged profile."""
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 4000, 29)
    sample = partial_sum_paths(tb.map, tb.observable, 2048, [1.0], inits, 29)
    w = sample.marginal(1.0)
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=16)
    weights = [np.mean([(lo <= x <= hi) for x in inits for (lo, hi) in sup]) for sup, _ in prof.components]
    target = sum(wt * v for wt, (_, v) in zip(weights, prof.components))
    est = w.var(ddof=1)
    stderr = est * math.sqrt(2.0 / (len(w) - 1)) * 2.0  # mixture kurtosis slack
    assert abs(est - target) <= 3 * stderr


def test_path_mean_is_centered():
    sys2 = tent_system(2.0)
    inits = sample_from_density(sys2.density, 4000, 31)
    sample = partial_sum_paths(sys2.map, sys2.observable, 1024, [1.0], inits, 31)
    w = sample.marginal(1.0)
    stderr = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean()) <= 4 * stderr


# ----------------------------------------------------------------------
# maximal inequality
# ----------------------------------------------------------------------

def test_maximal_inequality_martingale_case():
    """With P_T f = 0 the bound is 3 sqrt(n) ||f||_2 and Doob already gives
    2 sqrt(n) ||f||_2, so the margin must be wide."""
    tb = three_branch_system()
    rep = maximal_inequality_sweep(tb.map, tb.observable, tb.transfer, tb.density, [64], 2000, 37)[0]
    assert rep.delta_q == 0.0
    expected_rhs = 3.0 * math.sqrt(64) * math.sqrt(2.5)
    assert rep.rhs == pytest.approx(expected_rhs, abs=1e-9)
    assert rep.holds and rep.margin_sigmas >= 5.0


@pytest.mark.parametrize("n", [8, 64, 512])
def test_maximal_inequality_three_branch(n):
    tb = three_branch_system()
    rep = maximal_inequality_sweep(tb.map, tb.observable, tb.transfer, tb.density, [n], 2000, 41)[0]
    assert rep.holds


def test_maximal_inequality_random_observables():
    from ergclt.maps import _tent_core_interval
    sys13 = tent_system(1.3)
    core = _tent_core_interval(1.3)
    rng = np.random.default_rng(43)
    for i in range(10):
        bp = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(core.lo, core.hi, 5)]))
        raw = PAF.step(bp, rng.normal(size=len(bp) - 1))
        mean = integrate_product([raw, sys13.density])
        h = Observable(f=raw - PAF.constant(-1.0, 1.0, mean), centered_wrt="tent(a=1.3)")
        reports = maximal_inequality_sweep(sys13.map, h, sys13.transfer, sys13.density,
                                           [8, 64], 2000, 100 + i)
        assert all(r.holds for r in reports)


@pytest.mark.parametrize("ns, trials", [([], 100), ([8], 1)])
def test_maximal_inequality_rejects_no_horizon_and_too_few_trials(ns, trials):
    """No horizon gives no report, and one trial no standard error: a single
    trial used to report a bound that holds (lhs 2.0 against rhs 13.4 at
    n = 8) with margin inf and holds=False."""
    tb = three_branch_system()
    with pytest.raises(ValueError):
        maximal_inequality_sweep(tb.map, tb.observable, tb.transfer, tb.density, ns, trials, 47)


def test_maximal_inequality_q_definition():
    tb = three_branch_system()
    for n, q in ((8, 4), (64, 7), (512, 10), (7, 3)):
        rep = maximal_inequality_sweep(tb.map, tb.observable, tb.transfer, tb.density, [n], 100, 47)[0]
        assert rep.q == q
        assert 2 ** (rep.q - 1) <= n < 2**rep.q

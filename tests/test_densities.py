"""Ulam discretization, stationary densities, periodicity detection, and the
tent density in closed form."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import references as ref
from ergclt.cli import main
from ergclt.densities import (
    ROW_SUM_ULPS,
    ConvergenceError,
    UlamOperator,
    _reachable,
    detect_periodicity,
    invariant_density,
    tent_density,
    ulam_matrix,
)
from ergclt.maps import (Interval, PiecewiseLinearMap, squared_param, tent_map, tent_period, tent_support_cycle,
                         three_branch_map)
from ergclt.transfer import frobenius_perron


def test_ulam_tent2_two_cells():
    # branch preimages computed by hand: T^{-1}[-1,0] = [-1/2, 1/2]
    op = ulam_matrix(tent_map(2.0), 2)
    np.testing.assert_allclose(op.rows.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=0)


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_three_branch_block_structure(n):
    op = ulam_matrix(three_branch_map(), n)
    mat = op.rows.toarray()
    half = n // 2
    assert np.all(mat[:half, half:] == 0)
    assert np.all(mat[half:, :half] == 0)


@pytest.mark.parametrize("n", [65536, 10001, 4097, 1025, 999, 1001])
@pytest.mark.parametrize("build", [
    lambda: tent_map(1.5), lambda: tent_map(1.3), lambda: tent_map(1.1), lambda: tent_map(2.0),
    three_branch_map,
], ids=["tent1.5", "tent1.3", "tent1.1", "tent2", "three_branch"])
def test_ulam_matrix_keeps_the_reference_build(build, n):
    """`rows` and `pushes` hold the data, indices and indptr of the build
    that kept its entry lists through the COO -> CSR conversion, dtypes
    included; the odd tent grids sum one or two duplicate entries."""
    map_ = build()
    op = ulam_matrix(map_, n)
    want = ref.ulam_rows(map_, n)
    for got, old in ((op.rows, want), (op.pushes, want.T.tocsr())):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(old, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


@pytest.mark.parametrize("build", [
    lambda: (tent_map(2.0), 128),
    lambda: (tent_map(1.37), 200),
    lambda: (three_branch_map(), 100),
])
def test_row_sums_and_positivity(build):
    map_, n = build()
    op = ulam_matrix(map_, n)
    assert op.row_sum_error() <= 1e-12
    assert op.rows.min() >= 0.0


def test_mass_conservation_and_positivity_of_action():
    op = ulam_matrix(tent_map(1.61), 256)
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 1, 256)
    d /= d.sum()
    out = op.apply_to_masses(d)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda: (tent_map(2.0), 1024),
    lambda: (tent_map(1.3), 4096),
    lambda: (tent_map(1.1), 65536),
    lambda: (three_branch_map(), 1000),
])
def test_push_matches_row_vector_product(build):
    """The stored push gives d @ rows bit for bit on random mass vectors."""
    map_, n = build()
    op = ulam_matrix(map_, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        d = rng.uniform(0, 1, n)
        assert op.apply_to_masses(d).tobytes() == (d @ op.rows).tobytes()


@pytest.mark.parametrize("n", [1024, 65536])
@pytest.mark.parametrize("build", [
    lambda: tent_map(2.0), lambda: tent_map(1.5), lambda: tent_map(1.3), lambda: tent_map(1.1),
    three_branch_map,
], ids=["tent2", "tent1.5", "tent1.3", "tent1.1", "three_branch"])
def test_invariant_density_matches_stacked_mean_reference(build, n):
    """Running window sums and the stored push give the bytes, residual and
    iteration count of the deque of iterates, np.mean and d @ rows; the
    detected period is the same too."""
    op = ulam_matrix(build(), n)
    old_op = ref.RowPushUlam(op.grid_n, op.domain, op.rows)
    fn, info = invariant_density(op, return_info=True)
    old_fn, old_info = ref.invariant_density(old_op, return_info=True)
    assert fn.breakpoints.tobytes() == old_fn.breakpoints.tobytes()
    assert fn.intercepts.tobytes() == old_fn.intercepts.tobytes()
    assert float.hex(info["residual"]) == float.hex(old_info["residual"])
    assert info["iterations"] == old_info["iterations"]
    assert detect_periodicity(op, fn) == ref.full_width_detect_periodicity(old_op, old_fn)


def _traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_invariant_density_memory_bounded():
    """The a = 1.5 chain at 65,536 cells keeps seven window sums, not 64
    stacked iterates (67 MiB traced with them)."""
    op = ulam_matrix(tent_map(1.5), 65536)
    assert _traced_peak_mib(lambda: invariant_density(op)) <= 16.0


def test_ulam_chain_memory_bounded():
    """Build, iteration and detection of the tent a = 1.3 chain at 65,536
    cells trace at most 10 MiB: no entry list or branch array is alive at
    the CSR conversion, and no window sum, sub-chain or iterate while the
    density is built (11.7 MiB while they were).  A small chain runs first,
    so that no scipy import is traced."""
    import scipy.sparse  # noqa: F401

    def chain(n):
        op = ulam_matrix(tent_map(1.3), n)
        detect_periodicity(op, invariant_density(op))

    chain(64)
    assert _traced_peak_mib(lambda: chain(65536)) <= 10.0


def test_density_command_memory_bounded(tmp_path):
    """`density` at 65,536 cells writes its CSV in blocks, never the whole text
    at once (67 MiB traced with the stacked iterates and the one text)."""
    argv = ["density", "--map", "tent", "--a", "1.5", "--grid", "65536", "--out", str(tmp_path / "d")]
    assert _traced_peak_mib(lambda: main(argv)) <= 24.0


def test_invariant_density_tent2_exact():
    fn, info = invariant_density(ulam_matrix(tent_map(2.0), 4096), return_info=True)
    assert np.abs(fn.intercepts - 0.5).max() <= 1e-9
    assert info["residual"] <= 1e-10


def test_invariant_density_three_branch():
    fn = invariant_density(ulam_matrix(three_branch_map(), 1024))
    assert np.abs(fn.intercepts - 1.0).max() <= 1e-9


def test_three_branch_block_invariance():
    """Densities supported on either half are separately invariant."""
    op = ulam_matrix(three_branch_map(), 256)
    for half in (slice(0, 128), slice(128, 256)):
        d = np.zeros(256)
        d[half] = 1.0 / 128
        np.testing.assert_allclose(op.apply_to_masses(d), d, atol=1e-14)


def test_invariant_density_vanishes_outside_core():
    fn = ref.tent_ulam_density(1.3, 2048)
    x = np.linspace(-1, 1, 500)
    outside = (x < -0.09 - 1e-6) | (x > 0.3 + 1e-6)
    assert np.abs(fn(x[outside])).max() == 0.0
    assert fn.integral() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [2.0, 1.5, 1.3, 1.25, 1.1])
def test_detect_periodicity_grid4096(a):
    op = ulam_matrix(tent_map(a), 4096)
    assert detect_periodicity(op, invariant_density(op)) == tent_period(a)


@pytest.mark.parametrize("a", [1.3, 1.25, 1.1])
def test_detect_periodicity_seeded_by_the_closed_form(a):
    """A density on another grid than the chain's seeds the chain's cell
    under its largest piece, so the closed-form tent density detects the
    formula's period on a 4096-cell chain (reading its piece index as a cell
    gave 1 at a = 1.1 and 1.25)."""
    op = ulam_matrix(tent_map(a), 4096)
    assert detect_periodicity(op, tent_density(a)) == tent_period(a)


def _rotation(cells: int) -> PiecewiseLinearMap:
    """x -> x + 1/cells mod 1: its Ulam chain on `cells` cells is one cycle
    through every cell."""
    step = 1.0 / cells
    return PiecewiseLinearMap(Interval(0.0, 1.0),
                              [((0.0, 1.0 - step), 1.0, step), ((1.0 - step, 1.0), 1.0, step - 1.0)])


def _outcome(run):
    try:
        return run()
    except RuntimeError as exc:  # ConvergenceError and DetectionError
        return type(exc), str(exc)


# (map, grid, tolerance of the power iteration)
_CHAIN_CASES = {
    "tent2": (lambda: tent_map(2.0), 4096, 1e-10),          # the reachable set is the whole support
    "tent1.1": (lambda: tent_map(1.1), 65536, 1e-10),       # 365 reachable cells of 65,536
    "three-branch-odd": (three_branch_map, 1001, 1e-10),    # a cell straddles 0.5 and joins the halves
    "tent1.06-coarse": (lambda: tent_map(1.06), 4096, 1e-10),  # shows period 2, not the formula's 8
    "tent1.3-unreachable-tol": (lambda: tent_map(1.3), 64, 0.0),  # ConvergenceError
    "rotation-longer-than-window": (lambda: _rotation(128), 128, 1e-10),  # DetectionError
}


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_restricted_chains_keep_the_full_chain_bits(case):
    """Iterating the image cells and the cells reachable from the seed gives
    the density bytes, residual, iteration count and period of pushing every
    cell, and a failing case raises the same exception and message."""
    build, grid, tol = _CHAIN_CASES[case]
    op = ulam_matrix(build(), grid)
    got = _outcome(lambda: invariant_density(op, tol=tol, return_info=True))
    want = _outcome(lambda: ref.full_width_invariant_density(op, tol=tol, return_info=True))
    if isinstance(want[0], type):
        assert got == want
        return
    (fn, info), (old_fn, old_info) = got, want
    assert fn.intercepts.tobytes() == old_fn.intercepts.tobytes()
    assert float.hex(info["residual"]) == float.hex(old_info["residual"])
    assert info["iterations"] == old_info["iterations"]
    assert _outcome(lambda: detect_periodicity(op, fn)) == _outcome(lambda: ref.full_width_detect_periodicity(op, fn))


@pytest.mark.parametrize("build, grid", [(lambda: tent_map(2.0), 4096), (lambda: tent_map(1.1), 65536),
                                         (lambda: tent_map(1.5), 4096), (three_branch_map, 1001),
                                         (three_branch_map, 1024)])
def test_restricted_chains_rest_on_a_closed_set_and_an_empty_rest(build, grid):
    """The two facts the restricted chains rest on: every stored entry of a
    reachable row points at a reachable cell, and a push leaves exactly +0.0
    on every cell outside the image, whose rows of `pushes` are empty."""
    op = ulam_matrix(build(), grid)
    seed = int(np.argmax(invariant_density(op).intercepts))
    cells = _reachable(op.rows, seed)
    assert seed in cells
    assert np.isin(op.rows[cells].indices, cells).all()
    image = np.diff(op.pushes.indptr) > 0
    assert image.any()
    pushed = op.apply_to_masses(np.random.default_rng(grid).uniform(0.0, 1.0, grid))
    assert pushed[~image].tobytes() == np.zeros(np.count_nonzero(~image)).tobytes()


@pytest.mark.parametrize("a", [2.0, 1.8, 1.5, 1.3, 1.2, 1.1])
def test_tent_density_normalized(a):
    g = tent_density(a)
    assert g.integral() == pytest.approx(1.0, abs=1e-6)
    assert g.intercepts.min() >= -1e-12


@pytest.mark.parametrize("a, loses_mass", [
    (1.003527, True), (1.006, True), (1.0095, False), (1.01, False), (1.011, False),
])
def test_tent_density_deep_window_mass_check(a, loses_mass):
    """Deep windows have cycle intervals too narrow for float64; a density
    with no mass on its support cycle, or one that P does not fix to
    MEASURE_TOL, raises instead of returning the result, and says which
    parameter was asked for."""
    if loses_mass:
        with pytest.raises(ConvergenceError, match="the tent density at a=") as err:
            tent_density(a)
        assert f"a={a!r} " in str(err.value)  # the parameter asked for, not an inner level
    else:
        assert abs(tent_density(a).integral() - 1.0) <= 1e-9


def test_tent_density_base_case():
    g = tent_density(2.0)
    assert g.num_pieces == 1
    assert g(0.123) == 0.5


def test_tent_density_cross_validation():
    """The closed form vs direct Ulam at the parameter."""
    exact = tent_density(1.3)
    ulam = ref.tent_ulam_density(1.3, 8192)
    assert (exact - ulam).norm_l1() <= 2e-2


@pytest.mark.parametrize("a", [1.8, 1.5])
def test_ulam_converges_to_the_closed_form_at_rate_log_n_over_n(a):
    """Ulam's method converges in L1 at rate O(log n / n) for piecewise
    expanding maps (Li 1976; Bose & Murray 2001): the distance to the closed
    form falls with the grid and stays below 1.25 ln n / n.  At a = 1.8 it
    reads 1.04, 1.13 and 1.10 times ln n / n, at a = 1.5 at most 0.026."""
    grids = (2**12, 2**14, 2**16)
    dists = [(invariant_density(ulam_matrix(tent_map(a), n)) - tent_density(a)).norm_l1() for n in grids]
    assert dists[0] > dists[1] > dists[2]
    assert all(d <= 1.25 * math.log(n) / n for d, n in zip(dists, grids))


@pytest.mark.parametrize("a", [1.3, 1.25, 1.1])
def test_cycle_masses_equal_share(a):
    g = tent_density(a)
    cyc = tent_support_cycle(a)
    r = cyc.period
    for iv in cyc.intervals:
        assert g.integral(iv.lo, iv.hi) == pytest.approx(1.0 / r, abs=2e-2)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0   # c_3 = 0: the critical point is periodic


@pytest.mark.parametrize("a", [2.0, math.sqrt(2.0), GOLDEN, 2.0**0.25, 1.3, 1.1, 1.08, 1.03])
def test_tent_density_closed_form_is_invariant(a):
    """g >= 0, ∫g = 1 and Pg = g, each to rounding."""
    g = tent_density(a)
    assert g.intercepts.min() >= 0.0
    assert abs(g.integral() - 1.0) <= 1e-14
    assert (frobenius_perron(tent_map(a), g) - g).norm_l1() <= 1e-12


@pytest.mark.parametrize("a", [1.3, 1.1])
def test_tent_density_matches_conjugacy_assembly(a):
    """The closed form at a equals the density assembled through the
    conjugacy from the closed form at a^2."""
    assembled = ref.tent_density_from_square(a, tent_density(squared_param(a)))
    assert (tent_density(a) - assembled).norm_l1() <= 1e-14


def test_cycle_masses_from_raw_ulam():
    g = invariant_density(ulam_matrix(tent_map(1.3), 4096))
    for iv in tent_support_cycle(1.3).intervals:
        assert g.integral(iv.lo, iv.hi) == pytest.approx(0.5, abs=2e-2)


def test_export_density_csv(tmp_path):
    # the density table is exported as CSV by the `density` command
    out = tmp_path / "density"
    assert main(["density", "--map", "tent", "--a", "2", "--grid", "64", "--out", str(out)]) == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "cell_lo,cell_hi,value"
    lo, hi, v = lines[1].split(",")
    assert float(lo) == -1.0 and float(v) == 0.5


@pytest.mark.parametrize("grid", [4096, 9000])
def test_density_csv_blocks_match_one_text(tmp_path, grid):
    """A CSV written in row blocks, the last one partial or not, has the
    bytes of the table rendered as one text."""
    out = tmp_path / "density"
    assert main(["density", "--map", "tent", "--a", "2", "--grid", str(grid), "--out", str(out)]) == 0
    text = (tmp_path / "density.csv").read_bytes()
    expect = ref.density_csv(invariant_density(ulam_matrix(tent_map(2.0), grid))).encode()
    # A position, not pytest's diff of two long texts, which takes minutes.
    first = next((i for i, (x, y) in enumerate(zip(text, expect)) if x != y), min(len(text), len(expect)))
    assert (len(text), first) == (len(expect), len(expect)), text[first - 40:first + 40]


@pytest.mark.parametrize("grid", [4096, 9000])
def test_density_json_blocks_match_one_text(tmp_path, grid):
    """A JSON table written in cell blocks, the last one partial or not, has
    the bytes of the payload dumped as one text with its cell list."""
    out = tmp_path / "density"
    assert main(["density", "--map", "tent", "--a", "2", "--grid", str(grid), "--format", "json",
                 "--out", str(out)]) == 0
    text = (tmp_path / "density.json").read_text()
    payload = json.loads(text)
    del payload["cells"]
    expect = ref.density_json(payload, invariant_density(ulam_matrix(tent_map(2.0), grid)))
    # A position, not pytest's diff of two texts of 0.8 MB, which takes minutes.
    first = next((i for i, (x, y) in enumerate(zip(text, expect)) if x != y), min(len(text), len(expect)))
    assert (len(text), first) == (len(expect), len(expect)), text[first - 40:first + 40]


def test_density_json_command_memory_bounded(tmp_path):
    """`density --format json` at 65,536 cells encodes its cell list in
    blocks (32 MiB traced with the whole list and text at once)."""
    argv = ["density", "--map", "tent", "--a", "1.5", "--grid", "65536", "--format", "json",
            "--out", str(tmp_path / "d")]
    assert _traced_peak_mib(lambda: main(argv)) <= 16.0


@pytest.mark.parametrize("build", [lambda: (tent_map(2.0), 10000), lambda: (tent_map(1.3), 65535),
                                   lambda: (three_branch_map(), 50000)],
                         ids=["tent2-10000", "tent1.3-65535", "three-50000"])
def test_row_sum_check_scales_with_the_grid(build):
    """Row sums miss 1 by the edge rounding times the cell count: grids that
    are not powers of two pass above 10,000 cells, where an absolute 1e-12
    refused them, and stay within ROW_SUM_ULPS * n ulps."""
    map_, n = build()
    op = ulam_matrix(map_, n)
    assert 1e-12 < op.row_sum_error() <= ROW_SUM_ULPS * n * 2.0**-52


def test_row_sum_check_rejects_a_perturbed_entry():
    op = ulam_matrix(tent_map(2.0), 65536)
    rows = op.rows.copy()
    rows.data[len(rows.data) // 2] += 1e-6
    with pytest.raises(ValueError, match="not stochastic"):
        UlamOperator(op.grid_n, op.domain, rows)


@pytest.mark.parametrize("grid", [1000, 4096, 10000])
def test_row_sum_check_only_admits_or_rejects(grid, monkeypatch):
    """The check changes no entry and no density bit: with it off, an accepted
    grid gives the same matrix and density bytes."""
    op = ulam_matrix(tent_map(1.5), grid)
    density = invariant_density(op)
    monkeypatch.setattr(UlamOperator, "row_sum_error", lambda self: 0.0)
    unchecked = ulam_matrix(tent_map(1.5), grid)
    for name in ("data", "indices", "indptr"):
        assert getattr(op.rows, name).tobytes() == getattr(unchecked.rows, name).tobytes()
    assert invariant_density(unchecked).intercepts.tobytes() == density.intercepts.tobytes()


def test_ulam_requires_two_cells():
    with pytest.raises(ValueError):
        ulam_matrix(tent_map(2.0), 1)

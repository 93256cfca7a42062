"""Command-line surface: outputs, config precedence, exit codes."""

import hashlib
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import time

import pytest

from ergclt import cli, clt, densities, piecewise
from ergclt.cli import RunConfig, main

SQRT2 = math.sqrt(2.0)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_density_tent2(tmp_path):
    out = str(tmp_path / "d")
    assert main(["density", "--map", "tent", "--a", "2", "--grid", "256", "--out", out]) == 0
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "cell_lo,cell_hi,value"
    assert float(lines[1].split(",")[0]) == -1.0
    vals = [float(row.split(",")[2]) for row in lines[1:]]
    assert all(v == 0.5 for v in vals)
    meta = read_json(out + ".json")
    assert meta["period_detected"] == 1 and meta["period_formula"] == 1
    assert meta["residual"] <= 1e-10
    assert meta["schema_version"] == 1
    assert meta["config"]["grid_n"] == 256


def test_density_three_branch(tmp_path):
    out = str(tmp_path / "d3")
    assert main(["density", "--map", "three-branch", "--grid", "1024", "--out", out]) == 0
    vals = [float(r.split(",")[2]) for r in (tmp_path / "d3.csv").read_text().splitlines()[1:]]
    assert all(v == 1.0 for v in vals)


def test_density_tent13_cycle_masses(tmp_path):
    out = str(tmp_path / "d13")
    assert main(["density", "--map", "tent", "--a", "1.3", "--grid", "4096", "--out", out]) == 0
    meta = read_json(out + ".json")
    assert meta["period_detected"] == 2
    masses = meta["cycle_masses"]
    assert len(masses) == 2
    for m in masses:
        assert m == pytest.approx(0.5, abs=2e-2)


def test_variance_tent2_all_methods(tmp_path):
    out = str(tmp_path / "v")
    assert main(["variance", "--map", "tent", "--a", "2", "--trunc", "64", "--out", out]) == 0
    body = read_json(out + ".json")
    assert body["resolvent"]["sigma2"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert body["autocov"]["sigma2"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert body["dyadic_series"]["components"][0]["value"] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_variance_sqrt2_recursion(tmp_path):
    out = str(tmp_path / "vs")
    assert main(["variance", "--map", "tent", "--a", repr(SQRT2), "--trunc", "64", "--out", out]) == 0
    body = read_json(out + ".json")
    expected = ((SQRT2 - 1.0) ** 3 / (2.0 * math.sqrt(3.0))) ** 2
    assert body["recursion"]["sigma2"] == pytest.approx(expected, rel=1e-3)
    assert body["recursion"]["base_parameter"] == pytest.approx(2.0, abs=1e-12)


def test_variance_three_branch_profile(tmp_path):
    out = str(tmp_path / "v3")
    assert main(["variance", "--map", "three-branch", "--out", out]) == 0
    body = read_json(out + ".json")
    comps = body["variance_profile"]["components"]
    assert comps[0]["support"] == [[0.0, 0.5]] and comps[0]["value"] == pytest.approx(1.0, abs=1e-8)
    assert comps[1]["support"] == [[0.5, 1.0]] and comps[1]["value"] == pytest.approx(4.0, abs=1e-8)
    dyad = body["variance_profile_dyadic"]["components"]
    assert [c["value"] for c in dyad] == pytest.approx([1.0, 4.0], abs=1e-8)


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--map", "three-branch", "--steps", "128", "--paths", "50",
            "--seed", "7", "--out"]
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(args + [d1]) == 0
    assert main(args + [d2]) == 0
    b1 = (tmp_path / "s1.csv").read_bytes()
    b2 = (tmp_path / "s2.csv").read_bytes()
    assert b1 == b2
    j1 = read_json(d1 + ".json")
    j2 = read_json(d2 + ".json")
    j1["config"].pop("output_path")
    j2["config"].pop("output_path")
    assert j1 == j2


def test_simulate_gof_payload(tmp_path):
    out = str(tmp_path / "s")
    assert main(["simulate", "--map", "tent", "--a", "2", "--steps", "1024", "--paths", "500",
                 "--seed", "3", "--out", out]) == 0
    body = read_json(out + ".json")
    assert body["gof_reports"]
    assert "1.0" in body["marginal_variance"]


def test_usage_errors():
    assert main(["density", "--map", "tent", "--a", "3.0"]) == 2
    assert main(["density", "--map", "tent", "--a", "2", "--grid", "1"]) == 2
    assert main(["simulate", "--map", "tent", "--a", "2", "--paths", "0"]) == 2
    assert main(["bogus"]) == 2


def test_simulate_one_path_is_rejected_before_any_work(tmp_path, capsys):
    """Every KS report and sample variance needs two paths, so --paths 1 is
    a usage error found before any orbit runs: no file is written."""
    assert main(["simulate", "--map", "three-branch", "--paths", "1", "--out", str(tmp_path / "s1")]) == 2
    assert "paths must lie in [2, 10^6]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--map", "three-branch"]])
def test_seed_outside_64_bits_is_rejected_before_any_work(command, seed, tmp_path, capsys):
    """A seed keys numpy generators, which take [0, 2^64): one outside is a
    usage error found up front, before any criterion line or output file."""
    assert main(command + ["--seed", str(seed), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed must lie in [0, 2^64)" in err
    assert list(tmp_path.iterdir()) == []


def test_deep_window_density_exits_3(tmp_path, capsys):
    """A tent density that float64 cannot resolve is a numerical failure,
    found before any series runs."""
    assert main(["variance", "--map", "tent", "--a", "1.004", "--out", str(tmp_path / "v")]) == 3
    assert "the tent density at a=1.004 " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["density", "variance", "simulate"])
def test_windows_past_8_exit_2_up_front(command, tmp_path, capsys):
    """a <= 2^(1/512) lies in window m >= 9, whose support cycle float64
    cannot build: every command that reads a rejects it before any work."""
    t0 = time.perf_counter()
    assert main([command, "--map", "tent", "--a", "1.001", "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "window m = 9" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("a, grid, need", [(1.3, 256, 512), (1.1, 8192, 16384), (1.06, 65536, None)])
def test_density_grid_that_cannot_resolve_the_cycle_exits_2(a, grid, need, tmp_path, capsys):
    """Fewer than 16 cells per cycle interval or gap: exit 2 before the Ulam
    solve, naming the grid that is needed."""
    t0 = time.perf_counter()
    assert main(["density", "--map", "tent", "--a", repr(a), "--grid", str(grid), "--out", str(tmp_path / "d")]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"grid {grid} cannot resolve" in err
    assert (f"it needs {need} cells" if need else "it needs more than 65536 cells") in err
    assert not list(tmp_path.iterdir())


def test_density_period_against_the_formula_exits_3(tmp_path, monkeypatch, capsys):
    """A detected period that the window formula contradicts is a numerical
    failure, and no file is written."""
    monkeypatch.setattr(cli, "detect_periodicity", lambda op, density: 1)
    assert main(["density", "--map", "tent", "--a", "1.3", "--grid", "1024", "--out", str(tmp_path / "d")]) == 3
    assert "shows period 1, not the formula's 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_piece_budget_exits_3(tmp_path, monkeypatch, capsys):
    """An exact operation over the piece budget is a numerical failure: exit
    3, and the message gives the piece count and the budget."""
    monkeypatch.setattr(piecewise, "MAX_PIECES", 10_000)
    assert main(["variance", "--map", "tent", "--a", "1.02", "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^numerical failure: \d+ pieces exceed the budget of 10000$", err.strip())
    assert not (tmp_path / "v.json").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("map_spec=tent\na=1.5\ngrid_n=128\n")
    out = str(tmp_path / "c")
    assert main(["--config", str(cfg), "density", "--grid", "64", "--out", out]) == 0
    meta = read_json(out + ".json")
    assert meta["config"]["grid_n"] == 64   # flag beats file
    assert meta["config"]["a"] == 1.5       # file beats default


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    """An unknown key, or a known one the command does not read."""
    cfg = tmp_path / "bad.cfg"
    for line in ("nonsense=1", "seed=5"):
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "density"]) == 2
        assert "density" in capsys.readouterr().err


# flag -> (RunConfig field, argument, resolved value)
FLAGS = {
    "--map": ("map_spec", "three-branch", "three_branch"),
    "--a": ("a", "1.5", 1.5),
    "--grid": ("grid_n", "64", 64),
    "--steps": ("steps_n", "8", 8),
    "--paths": ("paths", "8", 8),
    "--seed": ("seed", "5", 5),
    "--trunc": ("truncation_J", "8", 8),
    "--out": ("output_path", "o", "o"),
    "--format": ("format", "json", "json"),
    "--only": ("only", "x", "x"),
}
READ_FLAGS = {
    "density": {"--map", "--a", "--grid", "--out", "--format"},
    "variance": {"--map", "--a", "--trunc", "--out"},
    "simulate": {"--map", "--a", "--steps", "--paths", "--seed", "--trunc", "--out"},
    "verify": {"--grid", "--seed", "--out", "--only"},
}


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, monkeypatch, capsys):
    """A flag the command does not read exits 2 and names the command and the
    flag; a flag it reads reaches the resolved config."""
    seen = []
    monkeypatch.setattr(cli, "cmd_" + command, lambda config, *given: seen.append(config) or 0)
    for flag, (key, arg, value) in FLAGS.items():
        if flag in READ_FLAGS[command]:
            assert main([command, flag, arg]) == 0
            assert getattr(seen.pop(), key) == value
        else:
            assert main([command, flag, arg]) == 2
            err = capsys.readouterr().err
            assert command in err and flag in err
    assert not seen


def test_verify_only_filter(capsys):
    assert main(["verify", "--only", "worked_variance"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] worked_variance" in out
    assert "densities" not in out


def test_verify_designed_failure_tiny_grid(capsys):
    # a 4-cell grid cannot resolve any support cycle, so the periodicity
    # criterion must fail and verify must exit nonzero (the pinned sup-error
    # checks survive any grid because both maps preserve Lebesgue measure)
    assert main(["verify", "--only", "periodicity", "--grid", "4"]) == 1
    assert "[FAIL] periodicity" in capsys.readouterr().out


def test_verify_writes_report(tmp_path):
    out = str(tmp_path / "report")
    assert main(["verify", "--only", "worked_variance", "--out", out]) == 0
    rep = read_json(out + ".json")
    assert rep["passed"] is True
    assert rep["criteria"][0]["name"] == "worked_variance"


@pytest.mark.parametrize("how", ["flag", "config"])
def test_verify_out_at_the_default_name_writes_the_report(how, tmp_path, monkeypatch):
    """--out (or its key) writes <out>.json even when it names the default;
    without it no file is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--only", "worked_variance"]) == 0
    assert not list(tmp_path.iterdir())
    (tmp_path / "v.cfg").write_text("output_path=ergclt_out\n")
    given = ["--out", "ergclt_out"] if how == "flag" else []
    config = ["--config", "v.cfg"] if how == "config" else []
    assert main(config + ["verify", "--only", "determinism"] + given) == 0
    assert read_json(tmp_path / "ergclt_out.json")["passed"] is True


def test_verify_grid_at_the_default_value_applies_to_every_periodicity_case(tmp_path):
    """--grid sets the Ulam grid of every periodicity case, the default value
    included; no case keeps its own resolving grid."""
    out = str(tmp_path / "rep")
    main(["verify", "--only", "periodicity", "--grid", "4096", "--out", out])
    rows = read_json(out + ".json")["criteria"][0]["measured"]["rows"]
    assert [r["grid"] for r in rows] == [4096] * 6


def _counted(monkeypatch, name, *modules, log=None):
    """The keyword arguments of each call of `name` through any of `modules`,
    as a list that grows; each call also appends `name` to `log`, if given."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counted(*a, real=real, **kw):
            calls.append(kw)
            if log is not None:
                log.append(name)
            return real(*a, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_density_solves_the_ulam_chain_once(tmp_path, monkeypatch):
    """The detected period seeds from the density the command writes: one
    Cesàro solve per run."""
    calls = _counted(monkeypatch, "invariant_density", cli, densities)
    assert main(["density", "--map", "tent", "--a", "1.3", "--grid", "1024", "--out", str(tmp_path / "d")]) == 0
    assert len(calls) == 1


def test_variance_above_sqrt2_sums_one_lag_series(tmp_path, monkeypatch):
    """At period 1 autocov and resolvent are one lag sum, computed once and
    written under both keys.  The dyadic series reads its lags in one more
    call, restricted to the map's one component."""
    calls = _counted(monkeypatch, "autocovariance_sequence", clt)
    out = str(tmp_path / "v")
    assert main(["variance", "--map", "tent", "--a", "1.8", "--out", out]) == 0
    assert len([kw for kw in calls if kw.get("over") is None]) == 1
    assert len([kw for kw in calls if kw.get("over") is not None]) == 1
    body = read_json(out + ".json")
    assert body["resolvent"] == dict(body["autocov"], method="resolvent")


def test_variance_base_runs_before_the_dyadic_series(tmp_path, monkeypatch, capsys):
    """The recursion's base raises at every a <= 2^(1/4), so it runs before
    the dyadic series, the costliest route: a failing run never reaches it."""
    order = []
    dyadic = _counted(monkeypatch, "variance_profile_dyadic", cli, log=order)
    assert main(["variance", "--map", "tent", "--a", "1.1", "--out", str(tmp_path / "v")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "v.json").exists()
    assert dyadic == []
    for name in ("sigma2_autocovariance", "sigma2_resolvent"):
        _counted(monkeypatch, name, cli, log=order)
    assert main(["variance", "--map", "tent", "--a", "1.3", "--out", str(tmp_path / "w")]) == 0
    assert order == ["sigma2_autocovariance", "sigma2_resolvent", "variance_profile_dyadic"]


@pytest.mark.parametrize("a, rate", [("1.19", "0.9973"), ("1.15", "1.0793"), ("1.1", "1.0000"),
                                     ("1.08", "1.0001"), ("1.05", "1.0001"), ("1.03", "1.3969")])
def test_tent_variance_failures_keep_their_messages(a, rate, tmp_path, capsys):
    """At these a every tent run exits 3 with a "not decaying" message,
    whichever route raises it; the exact text is pinned, so reordering the
    routes cannot change what a user sees."""
    assert main(["variance", "--map", "tent", "--a", a, "--out", str(tmp_path / "v")]) == 3
    assert capsys.readouterr().err == f"numerical failure: autocovariance lags are not decaying (fitted rate {rate})\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_outputs_get_the_mode_of_a_plain_create(umask, tmp_path):
    """Every file `density` and `simulate` write gets the mode that
    `open(..., "w")` gives a new file in the same directory (0o666 less the
    umask), not the 0o600 of a private temp file."""
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(["density", "--map", "tent", "--a", "2", "--grid", "256", "--out", str(tmp_path / "d")]) == 0
        assert main(["simulate", "--map", "three-branch", "--steps", "64", "--paths", "8",
                     "--out", str(tmp_path / "s")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain", "d.csv", "d.json", "s.csv", "s.json"], 0o666 & ~umask)


def test_runconfig_bounds():
    with pytest.raises(ValueError):
        RunConfig(grid_n=2**17).validate()
    with pytest.raises(ValueError):
        RunConfig(steps_n=2**23).validate()
    for paths in (1, 10**6 + 1):
        with pytest.raises(ValueError, match=r"paths must lie in \[2, 10\^6\]"):
            RunConfig(paths=paths).validate()
    with pytest.raises(ValueError):
        RunConfig(format="xml").validate()
    with pytest.raises(ValueError):
        RunConfig(truncation_J=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(truncation_J=2**16 + 1).validate()
    for levels in (-3, -1, 17):
        with pytest.raises(ValueError):
            RunConfig(dyadic_levels=levels).validate()
    with pytest.raises(ValueError, match="window m = 9"):
        RunConfig(a=2.0 ** (1.0 / 512)).validate()
    RunConfig(a=2.0 ** (1.0 / 256)).validate()   # m = 8, the deepest window accepted
    RunConfig().validate()
    RunConfig(truncation_J=2**16, dyadic_levels=16).validate()
    RunConfig(truncation_J=0, dyadic_levels=0).validate()


def test_verify_checks_the_grid_bound(capsys):
    """verify validates its config like every other command: a grid over
    2^16 exits 2 before any criterion runs."""
    assert main(["verify", "--grid", "131072", "--only", "densities"]) == 2
    captured = capsys.readouterr()
    assert "grid must lie in [2, 65536]" in captured.err
    assert "densities" not in captured.out


def test_negative_dyadic_levels_exit_2(tmp_path, capsys):
    cfg = tmp_path / "levels.cfg"
    cfg.write_text("dyadic_levels=-3\n")
    out = tmp_path / "v"
    assert main(["--config", str(cfg), "variance", "--map", "three-branch", "--out", str(out)]) == 2
    assert "dyadic_levels must lie in [0, 16]" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_density_grid_that_is_not_a_power_of_two_exits_0(tmp_path):
    """10,000 cells: the Ulam rows miss 1 by 1.0e-12, edge rounding that an
    absolute row-sum tolerance refused."""
    out = str(tmp_path / "d")
    assert main(["density", "--map", "tent", "--a", "2", "--grid", "10000", "--out", out]) == 0
    assert read_json(out + ".json")["period_detected"] == 1


def test_density_json_format_inlines_table(tmp_path):
    out = str(tmp_path / "dj")
    assert main(["density", "--map", "tent", "--a", "2", "--grid", "32",
                 "--format", "json", "--out", out]) == 0
    assert not (tmp_path / "dj.csv").exists()
    meta = read_json(out + ".json")
    assert len(meta["cells"]) == 32
    assert meta["cells"][0]["value"] == 0.5


# SHA-256 of every file each run writes; any change to these bytes must be
# deliberate.  The three-branch runs and the tent 1.3 density CSV are as first
# recorded; the other tent files were re-recorded once the reductions stopped
# going through BLAS, and the tent variance and simulate files again once the
# tent density became the closed form.  Every simulate JSON, the three-branch
# one too, was re-recorded once the normal CDF came from `math.erfc` (KS
# values moved by at most 1.03e-15 relative; every CSV held).
PINNED_RUNS = {
    "variance_tent_1.8": (
        ["variance", "--map", "tent", "--a", "1.8"],
        {"run.json": "b1d565c6229677424cd006e57fdd2d84c111f955002bcf4ff4f26c41a5c512d8"},
    ),
    "variance_three_branch": (
        ["--config", "levels.cfg", "variance", "--map", "three-branch"],
        {"run.json": "242bd4163c69a29e60e8a0a04af0545073f664e568a38383459093f12cb62bd7"},
    ),
    "density_tent_1.3": (
        ["density", "--map", "tent", "--a", "1.3", "--grid", "1024"],
        {"run.csv": "06dcbdeb145c3d3a2fc4ee12a397758535f8e253e66449368441d358bde9e245",
         "run.json": "a8194895dc3776150a6b73e076227bb4c24d8bf67a64f7cc7a81ecba7d30bc97"},
    ),
    "density_tent_1.3_json": (
        ["density", "--map", "tent", "--a", "1.3", "--grid", "1024", "--format", "json"],
        {"run.json": "ad979483a2ff9c767972f54c56a785d7ef54d0658abd661fa765f4955f37c7c8"},
    ),
    "simulate_three_branch": (
        ["simulate", "--map", "three-branch", "--paths", "200", "--steps", "256", "--seed", "7"],
        {"run.csv": "4cd8604a9fe154fd06d731de8827325b6d69d05ff76062397fe51034b8a7ebff",
         "run.json": "de5767428927c36098013a007721a118971fab9457ae2fb2cd87a84014bf794b"},
    ),
    # the bit engine on a slope -2 branch, with one word cut and no inner cut
    "simulate_tent_2": (
        ["simulate", "--map", "tent", "--a", "2", "--paths", "200", "--steps", "256", "--seed", "7"],
        {"run.csv": "f52cc46fd54c76a75981e2e348d47b59217c2db8bbdb4b2f1a4be0df151227db",
         "run.json": "e8a840435e0d0c027823cd2c85d2741b1df77a57764ea499a70a6710a21f81ae"},
    ),
    # period 4, detected on the few cells reachable from the seed
    "density_tent_1.1": (
        ["density", "--map", "tent", "--a", "1.1", "--grid", "16384"],
        {"run.csv": "35b2c282b025dfcd9beb6e5bce348bf7731f3feec2d179a0fa3392e5e52a48b3",
         "run.json": "d9bb1832d9e23e243bb70813bc7c3089341647538c216b3adeaa3571aa1c825b"},
    ),
    # an odd grid: the COO build of the Ulam matrix sums two duplicate entries
    "density_tent_1.3_odd": (
        ["density", "--map", "tent", "--a", "1.3", "--grid", "1025"],
        {"run.csv": "36626efd449bb0e998b2d3ff1370d51b6099ba9026fa65b7dc214f758442997b",
         "run.json": "74c758da84e1402eb56cf13e76869b5165287015c61558504bf896db226a5411"},
    ),
    # the float orbit engine
    "simulate_tent_1.3": (
        ["simulate", "--map", "tent", "--a", "1.3", "--paths", "200", "--steps", "256", "--seed", "7"],
        {"run.csv": "5843dc9996d29450d365f9a90a49953fb9ac0c0a0932a38f79e6d9a9ddd53867",
         "run.json": "1a8d18b59b680828baa44ff79c8bf4535b5b10b17a28ccefae8a893f239d6c86"},
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_output_bytes_pinned(run, tmp_path, monkeypatch):
    """The JSON carries the resolved config, output path included, so every
    run writes to the same relative path."""
    argv, digests = PINNED_RUNS[run]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "levels.cfg").write_text("dyadic_levels=6\n")
    assert main(argv + ["--out", "run"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


# Runs `main` of each command line in argv[1] (a JSON list) in this fresh
# interpreter after `import ergclt`; prints the exit codes and every scipy
# module and numpy.ma that is loaded at the end.
COLD_START_PROBE = """
import json, sys
import ergclt
import ergclt.cli
codes = [ergclt.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma")]))
"""


def cold_start(tmp_path, *argvs):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argvs = [argv + ["--out", f"run{i}"] for (i, argv) in enumerate(argvs)]
    run = subprocess.run([sys.executable, "-c", COLD_START_PROBE, json.dumps(argvs)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_variance_loads_no_scipy(tmp_path):
    """`import ergclt` and the `variance` command build no Ulam chain and
    run no KS test, so neither scipy nor numpy.ma is loaded."""
    codes, loaded = cold_start(tmp_path, ["variance", "--map", "tent", "--a", "1.8"],
                               ["variance", "--map", "three-branch"])
    assert codes == [0, 0]
    assert loaded == []


def test_mean_recursion_loads_no_scipy(tmp_path):
    """The mean-recursion criterion integrates against the closed-form tent
    density: it builds no Ulam chain, so no scipy module is loaded."""
    codes, loaded = cold_start(tmp_path, ["verify", "--only", "mean_recursion"])
    assert codes == [0]
    assert loaded == []


def test_simulate_and_limit_law_load_no_scipy(tmp_path):
    """`simulate` and the limit-law criteria read Phi from `math.erfc`, so
    neither loads a scipy module (scipy.special cost 24 MiB and 0.3 s)."""
    codes, loaded = cold_start(tmp_path, ["simulate", "--map", "three-branch", "--paths", "200", "--steps", "256"],
                               ["verify", "--only", "limit_law"])
    assert codes == [0, 0]
    assert loaded == []


def test_density_loads_scipy_sparse(tmp_path):
    """The Ulam chain of `density` loads scipy.sparse on its first use, but
    not scipy.sparse.csgraph: the reachable cells are found on the CSR
    arrays, and importing csgraph costs about 11 MiB of RSS.  No KS test
    runs, so scipy.special stays unloaded."""
    codes, loaded = cold_start(tmp_path, ["density", "--map", "tent", "--a", "1.5", "--grid", "1024"])
    assert codes == [0]
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.sparse.csgraph", "scipy.special"))]

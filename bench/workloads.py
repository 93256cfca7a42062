"""The three benchmark workloads: inputs drawn from the seed, cold set-up,
the job list, and the check of every job's output.

Each workload is a closed loop: one caller runs its jobs one after another
in this process, with no extra threads.  Nothing here imports `ergclt` at
module level, so the set-up time `cold_setup` measures includes the import.

Known defects of the program stay in the job lists.  A job that fails the
way a known defect predicts counts as failed, with the defect's reason,
but does not make the run incorrect; any other failure does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

KNOWN_DEFECTS = {
    "a": "`ergclt variance --map tent` exits 3 for a <= 2^(1/4): cmd_variance builds the "
         "resolvent base at a^2, while tent_sigma_recursion expects a^(2^m)",
    "b": "a library series raises 'lags are not decaying': pruned() merges cells with an "
         "absolute 1e-13 tolerance, which corrupts rounding-level iterates (windows m >= 2), "
         "and next to a = sqrt(2) the lags decay too slowly for the 0.99 fit gate",
    "c": "sigma2_autocovariance is off by an absolute error of about 1e-12 in windows m >= 2, "
         "where sigma2 is below 1e-8, from the same absolute tolerance in pruned()",
}

SQRT2 = math.sqrt(2.0)
FOURTH_ROOT_2 = 2.0 ** 0.25

# Job sizes; "tiny" serves the smoke check of the benchmark itself.
SIZES = {
    "series": {
        "full": {"cli_a": (1.8, 1.3, 1.1, 1.08), "dyadic_levels": 7, "scan_per_window": (4, 4, 3, 3)},
        "tiny": {"cli_a": (1.8, 1.3, 1.1), "dyadic_levels": 3, "scan_per_window": (1, 1, 1, 1)},
    },
    "ensemble": {
        "full": {"observables": 8, "ns": (8, 64, 512), "trials": 2000, "grid": 1024},
        "tiny": {"observables": 2, "ns": (8, 64), "trials": 2000, "grid": 1024},
    },
    "pipeline": {
        "full": {"density_a": (1.5, 1.3, 1.1), "grid": 65536, "steps": 4096, "paths": 4000,
                 "long_steps": 2**14, "long_paths": 4000},
        "tiny": {"density_a": (1.5, 1.3, 1.1), "grid": 16384, "steps": 4096, "paths": 4000,
                 "long_steps": 2048, "long_paths": 4000},
    },
}


@dataclass
class Job:
    name: str
    kind: str                                   # variance | scan | maximal | density | simulate
    call: Callable[[], object]                  # the timed call into the program
    check: Callable[[object], tuple[str, str]]  # -> ("ok" | "known:<key>" | "fail", reason)
    outputs: tuple[str, ...] = ()               # files whose bytes must repeat on every pass


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict
    verify: Callable[[], None] = lambda: None   # untimed work the checks need, run after the passes


def cold_setup(name: str, seed: int, size: str, before_build=None):
    """Import the package and construct the systems the workload needs.

    Returns (context, seconds).  `before_build` runs between the two steps,
    outside the timed span (the traced run installs its wrappers there)."""
    t0 = perf_counter()
    import ergclt  # noqa: F401

    t_import = perf_counter() - t0
    if before_build is not None:
        before_build()
    t1 = perf_counter()
    ctx = _SETUP[name](seed, SIZES[name][size])
    return ctx, t_import + perf_counter() - t1


def build(name: str, ctx, seed: int, size: str, workdir: str) -> Workload:
    return _BUILD[name](ctx, seed, SIZES[name][size], workdir)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _rng(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng([seed, stream])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `ergclt` command; returns the exit code and stderr."""
    from ergclt import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        if os.path.exists(p):
            with open(p, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _rel_diff(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0 else abs(x)


def _window(a: float) -> int:
    from ergclt import tent_period

    return tent_period(a).bit_length() - 1


def _cli_job(name: str, kind: str, argv: list[str], out: str, check_body) -> Job:
    """A CLI job writing `out`.json and maybe `out`.csv; `check_body(rc,
    err, out)` judges the exit code, stderr and the files."""
    def call():
        return _run_cli([*argv, "--out", out])

    def check(res):
        return check_body(*res, out)

    return Job(name, kind, call, check, (out + ".json", out + ".csv"))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# series: long lag series, one observable per system
# ----------------------------------------------------------------------

def _draw_scan(seed: int, per_window) -> list[float]:
    """Parameters stratified over windows m = 0..3.  Window m is
    (2^(1/2^(m+1)), 2^(1/2^m)]; it is cut into equal sub-strata with one
    uniform draw in each, so every seed covers every window alike."""
    r = _rng(seed, 1)
    out = []
    for m, k in enumerate(per_window):
        lo, hi = 2.0 ** (1.0 / 2 ** (m + 1)), 2.0 ** (1.0 / 2**m)
        for i in range(k):
            a = lo + (hi - lo) * (i + r.uniform(0.0, 1.0)) / k
            out.append(float(min(max(a, math.nextafter(lo, 2.0)), hi)))
    return out


def _setup_series(seed: int, sz: dict):
    import ergclt

    scan = _draw_scan(seed, sz["scan_per_window"])
    cycles = {}
    for a in list(sz["cli_a"]) + scan:
        ergclt.tent_system(a)
        cycles[a] = ergclt.tent_support_cycle(a)
    for a in sz["cli_a"]:
        if a <= SQRT2:
            ergclt.tent_system(ergclt.maps.squared_param(a))   # the base cmd_variance builds
    ergclt.three_branch_system()
    return {"scan": scan, "cycles": cycles}


def _build_series(ctx, seed: int, sz: dict, workdir: str) -> Workload:
    cfg = os.path.join(workdir, "series.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(f"dyadic_levels={sz['dyadic_levels']}\n")
    jobs = [_variance_job(cfg, workdir, a) for a in (*sz["cli_a"], None)]
    refs: dict[float, object] = {}
    jobs += [_scan_job(a, ctx["cycles"][a], refs) for a in ctx["scan"]]

    def verify():
        for a in ctx["scan"]:
            refs[a] = _scan_reference(a)

    return Workload(jobs, {"scan_a": ctx["scan"]}, verify)


def _variance_job(cfg: str, workdir: str, a: float | None) -> Job:
    if a is None:
        name, args = "variance three-branch", ["--map", "three-branch"]
    else:
        name, args = f"variance tent a={a!r}", ["--map", "tent", "--a", repr(a)]

    def check(rc, err, out):
        if rc != 0:
            if rc == 3 and a is not None and a <= FOURTH_ROOT_2:
                return "known:a", err
            return "fail", f"exit {rc}: {err}"
        body = _load_json(out + ".json")
        if a is None:
            for key in ("variance_profile", "variance_profile_dyadic"):
                v = [c["value"] for c in body[key]["components"]]
                if len(v) != 2 or abs(v[0] - 1.0) > 1e-8 or abs(v[1] - 4.0) > 1e-8:
                    return "fail", f"three-branch {key} {v} is not (1, 4) to 1e-8"
            return "ok", ""
        auto = body["autocov"]["sigma2"]
        if a > SQRT2:
            label, ref, tol = "resolvent", body["resolvent"]["sigma2"], 1e-8
        else:
            label, ref, tol = "recursion", body["recursion"]["sigma2"], 1e-6
        d = _rel_diff(auto, ref)
        if d > tol:
            return "fail", f"autocov {auto:.6e} vs {label} {ref:.6e}: rel diff {d:.2e} > {tol:g}"
        return "ok", ""

    out = os.path.join(workdir, name.replace(" ", "_").replace("=", ""))
    return _cli_job(name, "variance", ["--config", cfg, "variance", *args], out, check)


def _scan_job(a: float, cycle, refs: dict) -> Job:
    import ergclt

    def call():
        system = ergclt.tent_system(a)
        try:
            return ergclt.sigma2_autocovariance(system.observable, system.map, system.transfer,
                                                cycle).sigma2
        except ergclt.DivergenceError as exc:
            return exc

    def check(res):
        ref = refs[a]
        for label, value in (("", res), ("reference series: ", ref)):
            if isinstance(value, ergclt.DivergenceError):
                return ("known:b" if "not decaying" in str(value) else "fail"), f"{label}{value}"
        m = _window(a)
        tol = 1e-8 if m == 0 else 1e-6
        d = _rel_diff(res, ref)
        if d <= tol:
            return "ok", ""
        reason = (f"autocov {res:.6e} vs {'resolvent' if m == 0 else 'recursion'} {ref:.6e}: "
                  f"rel diff {d:.2e} > {tol:g}")
        return ("known:c" if m >= 2 and abs(res - ref) <= 1e-10 else "fail"), reason

    return Job(f"autocov a={a!r}", "scan", call, check)


def _scan_reference(a: float):
    """Resolvent sigma2 for a > sqrt(2); below, the recursion from the
    resolvent at the base parameter a^(2^m) of the top window."""
    import ergclt

    m = _window(a)
    try:
        if m == 0:
            s = ergclt.tent_system(a)
            return ergclt.sigma2_resolvent(s.observable, s.transfer).sigma2
        base = ergclt.tent_system(min(a ** (2**m), 2.0))
        sigma = ergclt.tent_sigma_recursion(a, ergclt.sigma2_resolvent(base.observable, base.transfer))
        return sigma * sigma
    except ergclt.DivergenceError as exc:
        return exc


# ----------------------------------------------------------------------
# ensemble: many observables sharing one map
# ----------------------------------------------------------------------

def _setup_ensemble(seed: int, sz: dict):
    import ergclt

    return {"tent": ergclt.tent_system(1.3, sz["grid"]), "three_branch": ergclt.three_branch_system()}


def _build_ensemble(ctx, seed: int, sz: dict, workdir: str) -> Workload:
    """Random centered step observables for tent a = 1.3, drawn as the
    `maximal` acceptance criterion draws them, plus the three-branch one."""
    import ergclt
    from ergclt import Observable, PiecewiseAffineFunction, integrate_product

    sys13, tb = ctx["tent"], ctx["three_branch"]
    t = ergclt.tent_map(1.3)
    core_lo, core_hi = t(t(0.0)), t(0.0)
    r = _rng(seed, 2)
    cases = [("three-branch", tb, tb.observable, seed)]
    for i in range(sz["observables"]):
        nb = int(r.integers(3, 9))
        bp = sorted([-1.0, 1.0, *r.uniform(core_lo, core_hi, nb).tolist()])
        raw = PiecewiseAffineFunction.step(bp, r.normal(size=len(bp) - 1))
        mean = integrate_product([raw, sys13.density])
        h = Observable(f=raw - PiecewiseAffineFunction.constant(-1.0, 1.0, mean),
                       centered_wrt="tent(a=1.3)")
        cases.append((f"random_{i} ({nb} steps)", sys13, h, seed + 1 + i))
    jobs = [_maximal_job(name, system, h, s, sz) for (name, system, h, s) in cases]
    return Workload(jobs, {"observables": [c[0] for c in cases]})


def _maximal_job(name: str, system, h, seed: int, sz: dict) -> Job:
    import ergclt

    def call():
        return ergclt.maximal_inequality_sweep(system.map, h, system.transfer, system.density,
                                               sz["ns"], sz["trials"], seed)

    def check(reports):
        for rep in reports:
            values = (rep.lhs, rep.rhs, rep.delta_q, rep.martingale_norm)
            if not all(math.isfinite(v) for v in values):
                return "fail", f"n={rep.n}: non-finite block norms or bound {values}"
            if not rep.holds:
                return "fail", f"n={rep.n}: lhs {rep.lhs:.4g} > rhs {rep.rhs:.4g} + 3 stderr"
        return "ok", ""

    return Job(f"maximal {name}", "maximal", call, check)


# ----------------------------------------------------------------------
# pipeline: the density -> simulate path users run
# ----------------------------------------------------------------------

def _setup_pipeline(seed: int, sz: dict):
    import ergclt

    ergclt.tent_system(1.3)
    ergclt.three_branch_system()
    return {}


def _build_pipeline(ctx, seed: int, sz: dict, workdir: str) -> Workload:
    sim_seeds = [int(s) for s in _rng(seed, 3).integers(1, 2**31, 3)]
    jobs = [_density_job(a, sz["grid"], workdir) for a in sz["density_a"]]
    runs = [
        ("three-branch", ["--map", "three-branch"], sz["paths"], sz["steps"]),
        ("tent a=1.3", ["--map", "tent", "--a", "1.3"], sz["paths"], sz["steps"]),
        ("three-branch long", ["--map", "three-branch"], sz["long_paths"], sz["long_steps"]),
    ]
    for (label, args, paths, steps), s in zip(runs, sim_seeds):
        out = os.path.join(workdir, "simulate_" + label.replace(" ", "_").replace("=", ""))
        argv = ["simulate", *args, "--paths", str(paths), "--steps", str(steps), "--seed", str(s)]
        jobs.append(_cli_job(f"simulate {label} {paths}x{steps}", "simulate", argv, out, _check_simulate))
    return Workload(jobs, {"simulate_seeds": sim_seeds})


def _density_job(a: float, grid: int, workdir: str) -> Job:
    import ergclt

    def check(rc, err, out):
        if rc != 0:
            return "fail", f"exit {rc}: {err}"
        meta = _load_json(out + ".json")
        expect = ergclt.tent_period(a)
        if meta["period_detected"] != expect:
            return "fail", f"detected period {meta['period_detected']} != tent_period {expect}"
        mass = 0.0
        with open(out + ".csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                lo, hi, v = map(float, line.split(","))
                mass += v * (hi - lo)
        if abs(mass - 1.0) > 1e-9:
            return "fail", f"density mass {mass!r} is not 1 to 1e-9"
        return "ok", ""

    out = os.path.join(workdir, f"density_{a}")
    argv = ["density", "--map", "tent", "--a", repr(a), "--grid", str(grid)]
    return _cli_job(f"density tent a={a!r} grid={grid}", "density", argv, out, check)


def _check_simulate(rc, err, out):
    if rc != 0:
        return "fail", f"exit {rc}: {err}"
    worst = max(r["ks_stat"] for r in _load_json(out + ".json")["gof_reports"])
    if worst > 0.05:
        return "fail", f"KS statistic {worst:.4f} > 0.05"
    return "ok", ""


_SETUP = {"series": _setup_series, "ensemble": _setup_ensemble, "pipeline": _setup_pipeline}
_BUILD = {"series": _build_series, "ensemble": _build_ensemble, "pipeline": _build_pipeline}
WORKLOADS = tuple(_SETUP)

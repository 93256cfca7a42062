"""Acceptance suite: one runner per release criterion.

Each runner returns a CriterionResult with the measured values, so the CLI
`verify` command and the pytest acceptance module share the same code and
print one pass/fail line per criterion.  Tolerances are fixed here, not
configurable.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .clt import (
    Observable,
    blocked_observable,
    condition_report,
    sigma2_autocovariance,
    sigma2_resolvent,
    tent_mean,
    tent_sigma_recursion,
    tent_system,
    three_branch_system,
    variance_profile,
    variance_profile_dyadic,
)
from .densities import (ConvergenceError, DetectionError, detect_periodicity, invariant_density,
                        resolving_grid, tent_ulam_density, ulam_matrix)
from .maps import (
    _tent_core_interval,
    squared_param,
    tent_fixed_point,
    tent_map,
    tent_period,
    tent_support_cycle,
    three_branch_map,
)
from .piecewise import PiecewiseAffineFunction, integrate_product
from .simulate import (
    ks_statistic,
    limit_law_check,
    maximal_inequality_sweep,
    mixture_normal_cdf,
    partial_sum_paths,
    sample_from_density,
)
from .transfer import frobenius_perron, koopman

DEFAULT_SEED = 1729


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def crit_densities(seed: int = DEFAULT_SEED, grid: int = 4096) -> CriterionResult:
    op2 = ulam_matrix(tent_map(2.0), grid)
    f2 = invariant_density(op2)
    err2 = float(np.abs(f2.intercepts - 0.5).max())
    op3 = ulam_matrix(three_branch_map(), grid)
    f3 = invariant_density(op3)
    err3 = float(np.abs(f3.intercepts - 1.0).max())
    ok = err2 <= 1e-9 and err3 <= 1e-9
    return CriterionResult(
        "densities", ok,
        {"tent2_sup_err": err2, "three_branch_sup_err": err3, "grid": grid},
        f"sup errors {err2:.2e} (tent a=2), {err3:.2e} (three-branch) at grid {grid}; bound 1e-9",
    )


def crit_worked_variance(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    res = sigma2_resolvent(sys2.observable, sys2.transfer)
    auto = sigma2_autocovariance(sys2.observable, sys2.map, sys2.transfer, tent_support_cycle(2.0))
    err_res = abs(res.sigma2 - 1.0 / 3.0)
    err_auto = abs(auto.sigma2 - 1.0 / 3.0)
    ok = err_res <= 1e-12 and res.truncation_J == 0 and err_auto <= 1e-8
    return CriterionResult(
        "worked_variance", ok,
        {"resolvent": res.sigma2, "resolvent_J": res.truncation_J, "autocov": auto.sigma2},
        f"resolvent err {err_res:.2e} (J={res.truncation_J}), autocov err {err_auto:.2e}",
    )


def crit_nonergodic_eta(seed: int = DEFAULT_SEED) -> CriterionResult:
    tb = three_branch_system()
    image = frobenius_perron(three_branch_map(), tb.observable.f)
    zero_err = image.sup_norm()
    prof_auto = variance_profile(tb.observable, tb.transfer, tb.components, J=32)
    prof_dyad = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=8)
    errs = []
    for prof in (prof_auto, prof_dyad):
        vals = {supports[0]: v for supports, v in prof.components}
        errs.append(abs(vals[(0.0, 0.5)] - 1.0))
        errs.append(abs(vals[(0.5, 1.0)] - 4.0))
    ok = zero_err == 0.0 and max(errs) <= 1e-8
    return CriterionResult(
        "nonergodic_eta", ok,
        {"transfer_image_sup": zero_err, "profile_errors": errs},
        f"P_T h sup {zero_err:.1e}; profile errors max {max(errs):.2e} vs (1, 4)",
    )


def crit_limit_law_mixture(seed: int = DEFAULT_SEED) -> CriterionResult:
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 4000, seed)
    sample = partial_sum_paths(tb.map, tb.observable, 4096, [1.0], inits, seed)
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=32)
    reports = limit_law_check(sample, prof)
    stats = [r.ks_stat for r in reports]
    ok = all(s <= 0.05 for s in stats)
    return CriterionResult(
        "limit_law_mixture", ok,
        {"ks": stats},
        "KS (mixture, left half, right half) = "
        + ", ".join(f"{s:.4f}" for s in stats) + " vs bound 0.05",
    )


def crit_limit_law_ergodic(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    inits = sample_from_density(sys2.density, 4000, seed)
    sample = partial_sum_paths(sys2.map, sys2.observable, 4096, [1.0], inits, seed)
    w = sample.marginal(1.0)
    ks = ks_statistic(w, lambda x: mixture_normal_cdf([(1.0, 1.0 / 3.0)], 1.0, x)).ks_stat
    var = float(w.var(ddof=1))
    rel = abs(var - 1.0 / 3.0) * 3.0
    ok = ks <= 0.05 and rel <= 0.05
    return CriterionResult(
        "limit_law_ergodic", ok,
        {"ks": ks, "variance": var, "variance_rel_err": rel},
        f"KS {ks:.4f} <= 0.05; variance {var:.4f} rel err {rel:.3%} <= 5%",
    )


_PERIODICITY_CASES = (2.0, 1.5, 1.3, 1.25, 1.1, 1.06)
_PERIODICITY_EXPECT = (1, 1, 2, 2, 4, 8)


def crit_periodicity(seed: int = DEFAULT_SEED, grid: int | None = None) -> CriterionResult:
    rows = []
    ok = True
    for a, expect in zip(_PERIODICITY_CASES, _PERIODICITY_EXPECT):
        formula = tent_period(a)
        g = grid if grid is not None else max(4096, resolving_grid(a))
        op = ulam_matrix(tent_map(a), g)
        try:
            # A loose tolerance: the density only seeds the detection in its largest cell.
            detected = detect_periodicity(op, invariant_density(op, tol=1e-6))
        except (ConvergenceError, DetectionError):
            detected = None
        rows.append({"a": a, "formula": formula, "detected": detected, "grid": g})
        ok = ok and formula == expect and detected == expect
    return CriterionResult(
        "periodicity", ok,
        {"rows": rows},
        "; ".join(f"a={r['a']}: formula {r['formula']}, ulam {r['detected']} (grid {r['grid']})"
                  for r in rows),
    )


def crit_recursion_vs_mc(seed: int = DEFAULT_SEED) -> CriterionResult:
    a = 1.3
    base_sys = tent_system(squared_param(a))
    base = sigma2_resolvent(base_sys.observable, base_sys.transfer)
    sigma = tent_sigma_recursion(a, base)
    sys_a = tent_system(a)
    inits = sample_from_density(sys_a.density, 2000, seed)
    sample = partial_sum_paths(sys_a.map, sys_a.observable, 2**16, [1.0], inits, seed)
    mc_var = float(sample.marginal(1.0).var(ddof=1))
    rel = abs(mc_var - sigma**2) / sigma**2
    ok = rel <= 0.10
    return CriterionResult(
        "recursion_vs_mc", ok,
        {"recursion_sigma2": sigma**2, "mc_var": mc_var, "rel_diff": rel},
        f"recursion {sigma**2:.4e} vs MC {mc_var:.4e}: rel diff {rel:.2%} <= 10%",
    )


def _chind_sides(a: float, n: int) -> tuple[float, float]:
    """Both sides of the cross-parameter restricted-autocovariance identity
    linking the doubled block at a to the plain block at a^2 (r = 1 here)."""
    sys_a = tent_system(a)
    asq = squared_param(a)
    sys_sq = tent_system(asq)
    xs = tent_fixed_point(a)
    h2 = blocked_observable(sys_a.observable, sys_a.map, 2).f
    lhs_shift = h2
    for _ in range(2 * n):
        lhs_shift = koopman(sys_a.map, lhs_shift)
    y1 = tent_support_cycle(a).intervals[0]
    lhs = integrate_product([h2, lhs_shift, sys_a.density], y1.lo, y1.hi)
    hsq = sys_sq.observable.f
    rhs_shift = hsq
    for _ in range(n):
        rhs_shift = koopman(sys_sq.map, rhs_shift)
    y0 = tent_support_cycle(asq).intervals[0]
    rhs_int = integrate_product([hsq, rhs_shift, sys_sq.density], y0.lo, y0.hi)
    factor = (1.0 - a) ** 2 * xs**2 / (4.0 * a * a)
    return lhs, factor * rhs_int


def crit_chind_identity(seed: int = DEFAULT_SEED) -> CriterionResult:
    worst = 0.0
    rows = []
    for a in (1.2, 1.3, 1.4):
        for n in (0, 1, 2):
            lhs, rhs = _chind_sides(a, n)
            diff = abs(lhs - rhs)
            worst = max(worst, diff)
            rows.append({"a": a, "n": n, "lhs": lhs, "rhs": rhs, "abs_diff": diff})
    ok = worst <= 1e-6
    return CriterionResult(
        "chind_identity", ok, {"rows": rows, "worst": worst},
        f"worst |lhs - rhs| = {worst:.2e} <= 1e-6 over a in (1.2, 1.3, 1.4), n in (0, 1, 2)",
    )


def crit_mean_recursion(seed: int = DEFAULT_SEED) -> CriterionResult:
    coord = PiecewiseAffineFunction.affine(-1.0, 1.0, 1.0, 0.0)
    rows = []
    worst = 0.0
    for a in (1.2, 1.3, 1.4):
        rec = tent_mean(a)
        # independent quadrature route: Ulam density computed directly at a
        quad_direct = integrate_product([coord, tent_ulam_density(a, 4096)])
        diff = abs(rec - quad_direct)
        worst = max(worst, diff)
        rows.append({"a": a, "recursion": rec, "quadrature": quad_direct, "abs_diff": diff})
    exact_zero = tent_mean(2.0)
    ok = worst <= 1e-3 and exact_zero == 0.0
    return CriterionResult(
        "mean_recursion", ok, {"rows": rows, "mean_at_2": exact_zero},
        f"worst |recursion - quadrature| = {worst:.2e} <= 1e-3; mean at a=2 is {exact_zero!r}",
    )


def crit_maximal(seed: int = DEFAULT_SEED) -> CriterionResult:
    observables = 100
    ns = (8, 64, 512)
    failures = []
    margins = []
    tb = three_branch_system()
    for rep in maximal_inequality_sweep(tb.map, tb.observable, tb.transfer, tb.density,
                                        ns, 2000, seed):
        margins.append(rep.margin_sigmas)
        if not rep.holds:
            failures.append(("three_branch", rep.n))
    sys13 = tent_system(1.3)
    core = _tent_core_interval(1.3)
    rng = np.random.default_rng(seed)
    for i in range(observables):
        nb = int(rng.integers(3, 9))
        bp = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(core.lo, core.hi, nb)]))
        raw = PiecewiseAffineFunction.step(bp, rng.normal(size=len(bp) - 1))
        mean = integrate_product([raw, sys13.density])
        h = Observable(f=raw - PiecewiseAffineFunction.constant(-1.0, 1.0, mean),
                       centered_wrt="tent(a=1.3)")
        for rep in maximal_inequality_sweep(sys13.map, h, sys13.transfer, sys13.density,
                                            ns, 2000, seed + 1 + i):
            margins.append(rep.margin_sigmas)
            if not rep.holds:
                failures.append((f"random_{i}", rep.n))
    batches = (observables + 1) * len(ns)
    ok = not failures
    return CriterionResult(
        "maximal", ok,
        {"batches": batches, "failures": failures, "min_margin_sigmas": float(min(margins))},
        f"{batches - len(failures)}/{batches} batches hold; min margin {min(margins):.0f} stderr",
    )


def crit_condition(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    tb = three_branch_system()
    norm_h2 = 1.0 / math.sqrt(3.0)
    measured = {}
    ok = True
    ratios = []
    tent2 = {K: condition_report(sys2.observable, sys2.transfer, K=K) for K in (64, 256, 1024)}
    for K, rep in tent2.items():
        const_err = max(abs(v - norm_h2) for v in rep.V)
        ratios.append(rep.series_partial[-1] / rep.dyadic_partial[-1])
        ok = ok and const_err <= 1e-12
        measured[f"tent2_K{K}_const_err"] = const_err
    spread = max(ratios) / min(ratios)
    ok = ok and spread <= 1.5
    measured["sandwich_ratio_spread"] = spread

    subadd_worst = -math.inf
    for rep in (
        tent2[64],
        condition_report(tb.observable, tb.transfer, K=64),
        condition_report(tent_system(1.5).observable, tent_system(1.5).transfer, K=24),
    ):
        V = rep.V
        for n in range(1, len(V) + 1):
            for m in range(1, len(V) + 1 - n):
                subadd_worst = max(subadd_worst, V[n + m - 1] - V[n - 1] - V[m - 1])
    ok = ok and subadd_worst <= 1e-9
    measured["subadditivity_worst"] = subadd_worst
    return CriterionResult(
        "condition", ok, measured,
        f"V_n constancy err {max(measured[k] for k in measured if k.endswith('const_err')):.1e}; "
        f"sandwich ratio spread {spread:.3f} <= 1.5; subadditivity slack {subadd_worst:.2e} <= 1e-9",
    )


def crit_determinism(seed: int = DEFAULT_SEED) -> CriterionResult:
    from .cli import RunConfig, cmd_simulate

    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        # one absolute output name for both runs: the resolved config is part
        # of the JSON payload, so byte-identity needs identical configs
        cfg = RunConfig(map_spec="three_branch", steps_n=256, paths=200, seed=seed,
                        output_path=os.path.join(tmp, "run"))
        for _ in range(2):
            cmd_simulate(cfg)
            run = []
            for name in (cfg.output_path + ".csv", cfg.output_path + ".json"):
                with open(name, "rb") as fh:
                    run.append(fh.read())
                os.remove(name)  # a second run that writes nothing must not pass on these
            outputs.append(tuple(run))
    ok = outputs[0] == outputs[1]
    return CriterionResult(
        "determinism", ok,
        {"csv_bytes": len(outputs[0][0]), "identical": ok},
        f"two runs produced {'identical' if ok else 'DIFFERENT'} bytes "
        f"({len(outputs[0][0])} csv bytes)",
    )


CRITERIA = {
    "densities": crit_densities,
    "worked_variance": crit_worked_variance,
    "nonergodic_eta": crit_nonergodic_eta,
    "limit_law_mixture": crit_limit_law_mixture,
    "limit_law_ergodic": crit_limit_law_ergodic,
    "periodicity": crit_periodicity,
    "recursion_vs_mc": crit_recursion_vs_mc,
    "chind_identity": crit_chind_identity,
    "mean_recursion": crit_mean_recursion,
    "maximal": crit_maximal,
    "condition": crit_condition,
    "determinism": crit_determinism,
}


def run_acceptance(only: str | None = None, seed: int = DEFAULT_SEED,
                   grid: int | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or those whose name contains `only`),
    printing one line per criterion.

    `grid` overrides the Ulam grid of the discretization-based criteria
    (densities, periodicity); the rest have their grids fixed by the release
    tolerances."""
    names = [n for n in CRITERIA if only is None or only in n]
    if not names:
        raise ValueError(f"no criterion matches {only!r}; available: {', '.join(CRITERIA)}")
    results = []
    for name in names:
        if grid is not None and name in ("densities", "periodicity"):
            result = CRITERIA[name](seed, grid=grid)
        else:
            result = CRITERIA[name](seed)
        results.append(result)
        print(result.line())
    return results


def results_to_json(results: list[CriterionResult], seed: int) -> str:
    return json.dumps(
        {
            "schema_version": 1,
            "seed": seed,
            "passed": all(r.passed for r in results),
            "criteria": [
                {"name": r.name, "passed": r.passed, "measured": r.measured, "detail": r.detail}
                for r in results
            ],
        },
        sort_keys=True,
        default=float,
    )

"""Acceptance suite: one runner per release criterion.

Each runner returns a CriterionResult with its gates and measured values, so
the CLI `verify` command and the pytest acceptance module share the same
code and print one pass/fail line per criterion.  A criterion passes when
every gate holds, and its line is generated from the gates.  Tolerances are
fixed here, not configurable.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import asdict, dataclass, field

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
                        resolving_grid, tent_density, ulam_matrix)
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

_SENSES = {"<=": operator.le, "==": operator.eq}


def _shown(x) -> str:
    return f"{x:.3g}" if isinstance(x, float) else repr(x)


@dataclass(frozen=True)
class Gate:
    """One fixed test of a measured value: `value sense bound`, where sense
    is "<=" or "==".  A missing value (None) or NaN never holds.  A Monte
    Carlo gate carries the standard error of its statistic, and its text
    gives the bound in standard errors."""

    name: str
    value: object
    bound: object
    sense: str
    stderr: float | None = None

    @property
    def holds(self) -> bool:
        return self.value is not None and bool(_SENSES[self.sense](self.value, self.bound))

    def text(self) -> str:
        out = f"{self.name} {_shown(self.value)} {self.sense} {_shown(self.bound)}"
        if self.stderr is not None:
            out += f" (bound {self.bound / self.stderr:.1f} stderr)"
        return out if self.holds else out + " FAILS"


@dataclass
class CriterionResult:
    name: str
    gates: list[Gate]
    measured: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(g.holds for g in self.gates)

    @property
    def detail(self) -> str:
        return "; ".join(g.text() for g in self.gates)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _variance_stderr(n: int) -> float:
    """Relative standard error of the sample variance of n normal draws."""
    return math.sqrt(2.0 / (n - 1))


def crit_densities(seed: int = DEFAULT_SEED, grid: int = 4096) -> CriterionResult:
    # both invariant densities are constant: 1/2 on [-1, 1] and 1 on [0, 1]
    errs = {name: float(np.abs(invariant_density(ulam_matrix(map_, grid)).intercepts - level).max())
            for name, map_, level in (("tent2_sup_err", tent_map(2.0), 0.5),
                                      ("three_branch_sup_err", three_branch_map(), 1.0))}
    return CriterionResult("densities", [Gate(k, e, 1e-9, "<=") for k, e in errs.items()], dict(errs, grid=grid))


def crit_worked_variance(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    res = sigma2_resolvent(sys2.observable, sys2.transfer)
    auto = sigma2_autocovariance(sys2.observable, sys2.map, sys2.transfer, tent_support_cycle(2.0))
    return CriterionResult(
        "worked_variance",
        [Gate("resolvent_err", abs(res.sigma2 - 1.0 / 3.0), 1e-12, "<="),
         Gate("resolvent_J", res.truncation_J, 0, "=="),
         Gate("autocov_err", abs(auto.sigma2 - 1.0 / 3.0), 1e-8, "<=")],
        {"resolvent": res.sigma2, "resolvent_J": res.truncation_J, "autocov": auto.sigma2},
    )


def crit_nonergodic_eta(seed: int = DEFAULT_SEED) -> CriterionResult:
    tb = three_branch_system()
    image = frobenius_perron(three_branch_map(), tb.observable.f)
    zero_err = image.sup_norm()
    prof_auto = variance_profile(tb.observable, tb.transfer, tb.components, J=32)
    prof_dyad = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=8)
    # per profile, the errors of its values on [0, 1/2] and [1/2, 1], which are 1 and 4
    errs = [abs({supports[0]: v for supports, v in prof.components}[half] - exact)
            for prof in (prof_auto, prof_dyad) for half, exact in (((0.0, 0.5), 1.0), ((0.5, 1.0), 4.0))]
    return CriterionResult(
        "nonergodic_eta",
        [Gate("transfer_image_sup", zero_err, 0.0, "=="), Gate("profile_err_max", max(errs), 1e-8, "<=")],
        {"transfer_image_sup": zero_err, "profile_errors": errs},
    )


def crit_limit_law_mixture(seed: int = DEFAULT_SEED) -> CriterionResult:
    tb = three_branch_system()
    inits = sample_from_density(tb.density, 4000, seed)
    sample = partial_sum_paths(tb.map, tb.observable, 4096, [1.0], inits, seed)
    prof = variance_profile(tb.observable, tb.transfer, tb.components, J=32)
    stats = [r.ks_stat for r in limit_law_check(sample, prof)]
    names = ("ks_mixture", "ks_left_half", "ks_right_half")
    return CriterionResult(
        "limit_law_mixture",
        [Gate(name, s, 0.05, "<=") for name, s in zip(names, stats, strict=True)],
        {"ks": stats},
    )


def crit_limit_law_ergodic(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    inits = sample_from_density(sys2.density, 4000, seed)
    sample = partial_sum_paths(sys2.map, sys2.observable, 4096, [1.0], inits, seed)
    w = sample.marginal(1.0)
    ks = ks_statistic(w, lambda x: mixture_normal_cdf([(1.0, 1.0 / 3.0)], 1.0, x)).ks_stat
    var = float(w.var(ddof=1))
    rel = abs(var - 1.0 / 3.0) * 3.0
    return CriterionResult(
        "limit_law_ergodic",
        [Gate("ks", ks, 0.05, "<="), Gate("variance_rel_err", rel, 0.05, "<=", _variance_stderr(len(w)))],
        {"ks": ks, "variance": var, "variance_rel_err": rel},
    )


_PERIODICITY_CASES = (2.0, 1.5, 1.3, 1.25, 1.1, 1.06)
_PERIODICITY_EXPECT = (1, 1, 2, 2, 4, 8)


def crit_periodicity(seed: int = DEFAULT_SEED, grid: int | None = None) -> CriterionResult:
    rows = []
    gates = []
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
        gates += [Gate(f"formula_period(a={a})", formula, expect, "=="),
                  Gate(f"ulam_period(a={a})", detected, expect, "==")]
    return CriterionResult("periodicity", gates, {"rows": rows})


def crit_recursion_vs_mc(seed: int = DEFAULT_SEED) -> CriterionResult:
    a = 1.3
    base_sys = tent_system(squared_param(a))
    base = sigma2_resolvent(base_sys.observable, base_sys.transfer)
    sigma = tent_sigma_recursion(a, base)
    sys_a = tent_system(a)
    inits = sample_from_density(sys_a.density, 2000, seed)
    sample = partial_sum_paths(sys_a.map, sys_a.observable, 2**16, [1.0], inits, seed)
    w = sample.marginal(1.0)
    mc_var = float(w.var(ddof=1))
    rel = abs(mc_var - sigma**2) / sigma**2
    return CriterionResult(
        "recursion_vs_mc",
        [Gate("rel_diff", rel, 0.10, "<=", _variance_stderr(len(w)))],
        {"recursion_sigma2": sigma**2, "mc_var": mc_var, "rel_diff": rel},
    )


def _restricted_lag(a: float, f: PiecewiseAffineFunction, lag: int) -> float:
    """The integral of f * (f o T^lag) against the tent density at a over
    the first interval of its support cycle."""
    system = tent_system(a)
    shifted = f
    for _ in range(lag):
        shifted = koopman(system.map, shifted)
    y = tent_support_cycle(a).intervals[0]
    return integrate_product([f, shifted, system.density], y.lo, y.hi)


def _chind_sides(a: float, n: int) -> tuple[float, float]:
    """Both sides of the cross-parameter restricted-autocovariance identity
    linking the doubled block at a to the plain block at a^2 (r = 1 here)."""
    sys_a = tent_system(a)
    asq = squared_param(a)
    lhs = _restricted_lag(a, blocked_observable(sys_a.observable, sys_a.map, 2).f, 2 * n)
    factor = (1.0 - a) ** 2 * tent_fixed_point(a) ** 2 / (4.0 * a * a)
    return lhs, factor * _restricted_lag(asq, tent_system(asq).observable.f, n)


def crit_chind_identity(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    for a in (1.2, 1.3, 1.4):
        for n in (0, 1, 2):
            lhs, rhs = _chind_sides(a, n)
            rows.append({"a": a, "n": n, "lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs)})
    worst = max(r["abs_diff"] for r in rows)
    return CriterionResult("chind_identity", [Gate("worst", worst, 1e-6, "<=")], {"rows": rows, "worst": worst})


def crit_mean_recursion(seed: int = DEFAULT_SEED) -> CriterionResult:
    coord = PiecewiseAffineFunction.affine(-1.0, 1.0, 1.0, 0.0)
    rows = []
    for a in (1.2, 1.3, 1.4):
        rec = tent_mean(a)
        # independent quadrature route: the closed-form density at a itself
        quad_direct = integrate_product([coord, tent_density(a)])
        rows.append({"a": a, "recursion": rec, "quadrature": quad_direct, "abs_diff": abs(rec - quad_direct)})
    exact_zero = tent_mean(2.0)
    gates = [Gate("worst_abs_diff", max(r["abs_diff"] for r in rows), 1e-3, "<="),
             Gate("mean_at_2", exact_zero, 0.0, "==")]
    return CriterionResult("mean_recursion", gates, {"rows": rows, "mean_at_2": exact_zero})


def crit_maximal(seed: int = DEFAULT_SEED) -> CriterionResult:
    tb = three_branch_system()
    sys13 = tent_system(1.3)
    core = _tent_core_interval(1.3)
    rng = np.random.default_rng(seed)
    # (label, system, observable); the k-th sweep draws its orbits from seed + k
    cases = [("three_branch", tb, tb.observable)]
    for i in range(100):
        nb = int(rng.integers(3, 9))
        bp = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(core.lo, core.hi, nb)]))
        raw = PiecewiseAffineFunction.step(bp, rng.normal(size=len(bp) - 1))
        mean = integrate_product([raw, sys13.density])
        cases.append((f"random_{i}", sys13, Observable(f=raw - PiecewiseAffineFunction.constant(-1.0, 1.0, mean),
                                                       centered_wrt="tent(a=1.3)")))
    reps = [(label, rep) for k, (label, system, h) in enumerate(cases)
            for rep in maximal_inequality_sweep(system.map, h, system.transfer, system.density,
                                                (8, 64, 512), 2000, seed + k)]
    failures = [(label, rep.n) for label, rep in reps if not rep.holds]
    measured = {"batches": len(reps), "failures": failures,
                "min_margin_sigmas": float(min(rep.margin_sigmas for _, rep in reps))}
    return CriterionResult("maximal", [Gate("failed_batches", len(failures), 0, "==")], measured)


def crit_condition(seed: int = DEFAULT_SEED) -> CriterionResult:
    sys2 = tent_system(2.0)
    tb = three_branch_system()
    norm_h2 = 1.0 / math.sqrt(3.0)
    tent2 = {K: condition_report(sys2.observable, sys2.transfer, K=K) for K in (64, 256, 1024)}
    gates = [Gate(f"tent2_K{K}_const_err", max(abs(v - norm_h2) for v in rep.V), 1e-12, "<=")
             for K, rep in tent2.items()]
    ratios = [rep.series_partial[-1] / rep.dyadic_partial[-1] for rep in tent2.values()]
    gates.append(Gate("sandwich_ratio_spread", max(ratios) / min(ratios), 1.5, "<="))

    profiles = (tent2[64].V, condition_report(tb.observable, tb.transfer, K=64).V,
                condition_report(tent_system(1.5).observable, tent_system(1.5).transfer, K=24).V)
    subadd_worst = max(V[n + m - 1] - V[n - 1] - V[m - 1]
                       for V in profiles for n in range(1, len(V) + 1) for m in range(1, len(V) + 1 - n))
    gates.append(Gate("subadditivity_worst", subadd_worst, 1e-9, "<="))
    return CriterionResult("condition", gates, {g.name: g.value for g in gates})


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
    identical = outputs[0] == outputs[1]
    return CriterionResult("determinism", [Gate("identical", identical, True, "==")],
                           {"csv_bytes": len(outputs[0][0]), "identical": identical})


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
        kwargs = {"grid": grid} if grid is not None and name in ("densities", "periodicity") else {}
        results.append(CRITERIA[name](seed, **kwargs))
        print(results[-1].line())
    return results


def results_to_json(results: list[CriterionResult], seed: int) -> str:
    """The report: per criterion its pass flag, measured values and gates."""
    return json.dumps(
        {
            "schema_version": 1,
            "seed": seed,
            "passed": all(r.passed for r in results),
            "criteria": [
                {"name": r.name, "passed": r.passed, "measured": r.measured,
                 "gates": [asdict(g) for g in r.gates]}
                for r in results
            ],
        },
        sort_keys=True,
        default=float,
    )

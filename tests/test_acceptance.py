"""Release acceptance suite.

Runs every criterion once at its pinned tolerance, prints one pass/fail
line each, and pins the bytes of the report and the bound of every gate;
`ergclt verify` executes the same runners.
"""

import hashlib
import math
import os

import pytest

from ergclt.acceptance import (CRITERIA, DEFAULT_SEED, CriterionResult, Gate, crit_determinism, results_to_json,
                               run_acceptance)
from ergclt.cli import main

# sha256 of the report `ergclt verify --out v` writes as v.json: any change to
# a measured value, down to the last bit, must be deliberate.
VERIFY_REPORT_SHA256 = "4f31a6d635d1ff049d33691093410e799d455cdfcaef24e33a47833e36d203d3"

# (criterion, gate) -> (sense, bound): the release tolerances.
GATE_BOUNDS = {
    ("densities", "tent2_sup_err"): ("<=", 1e-9),
    ("densities", "three_branch_sup_err"): ("<=", 1e-9),
    ("worked_variance", "resolvent_err"): ("<=", 1e-12),
    ("worked_variance", "resolvent_J"): ("==", 0),
    ("worked_variance", "autocov_err"): ("<=", 1e-8),
    ("nonergodic_eta", "transfer_image_sup"): ("==", 0.0),
    ("nonergodic_eta", "profile_err_max"): ("<=", 1e-8),
    ("limit_law_mixture", "ks_mixture"): ("<=", 0.05),
    ("limit_law_mixture", "ks_left_half"): ("<=", 0.05),
    ("limit_law_mixture", "ks_right_half"): ("<=", 0.05),
    ("limit_law_ergodic", "ks"): ("<=", 0.05),
    ("limit_law_ergodic", "variance_rel_err"): ("<=", 0.05),
    ("periodicity", "formula_period(a=2.0)"): ("==", 1),
    ("periodicity", "ulam_period(a=2.0)"): ("==", 1),
    ("periodicity", "formula_period(a=1.5)"): ("==", 1),
    ("periodicity", "ulam_period(a=1.5)"): ("==", 1),
    ("periodicity", "formula_period(a=1.3)"): ("==", 2),
    ("periodicity", "ulam_period(a=1.3)"): ("==", 2),
    ("periodicity", "formula_period(a=1.25)"): ("==", 2),
    ("periodicity", "ulam_period(a=1.25)"): ("==", 2),
    ("periodicity", "formula_period(a=1.1)"): ("==", 4),
    ("periodicity", "ulam_period(a=1.1)"): ("==", 4),
    ("periodicity", "formula_period(a=1.06)"): ("==", 8),
    ("periodicity", "ulam_period(a=1.06)"): ("==", 8),
    ("recursion_vs_mc", "rel_diff"): ("<=", 0.10),
    ("chind_identity", "worst"): ("<=", 1e-6),
    ("mean_recursion", "worst_abs_diff"): ("<=", 1e-3),
    ("mean_recursion", "mean_at_2"): ("==", 0.0),
    ("maximal", "failed_batches"): ("==", 0),
    ("condition", "tent2_K64_const_err"): ("<=", 1e-12),
    ("condition", "tent2_K256_const_err"): ("<=", 1e-12),
    ("condition", "tent2_K1024_const_err"): ("<=", 1e-12),
    ("condition", "sandwich_ratio_spread"): ("<=", 1.5),
    ("condition", "subadditivity_worst"): ("<=", 1e-9),
    ("determinism", "identical"): ("==", True),
}


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_acceptance(seed=DEFAULT_SEED)}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name, results, capsys):
    result = results[name]
    with capsys.disabled():
        print(f"\n  {result.line()}")
    assert result.passed, result.detail


def test_verify_report_pinned(results):
    report = results_to_json(list(results.values()), DEFAULT_SEED) + "\n"
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == VERIFY_REPORT_SHA256


def test_determinism_keeps_the_working_directory(monkeypatch):
    """The criterion writes both runs under one absolute name in a temporary
    directory: it never changes the process's working directory."""
    def refuse(path):
        raise OSError("chdir refused")

    monkeypatch.setattr(os, "chdir", refuse)
    assert crit_determinism().passed


def test_gate_bounds_pinned(results):
    """No bound moves, no gate disappears and none appears unlisted; the two
    sample-variance gates carry the relative standard error sqrt(2 / (n - 1))
    of their n paths, and no other gate carries one."""
    gates = {(r.name, g.name): g for r in results.values() for g in r.gates}
    assert {key: (g.sense, g.bound) for key, g in gates.items()} == GATE_BOUNDS
    assert {key: g.stderr for key, g in gates.items() if g.stderr is not None} == {
        ("limit_law_ergodic", "variance_rel_err"): math.sqrt(2.0 / 3999),
        ("recursion_vs_mc", "rel_diff"): math.sqrt(2.0 / 1999),
    }


def test_gate_without_a_value_fails():
    assert not Gate("g", math.nan, 1.0, "<=").holds
    assert not Gate("g", None, 1.0, "<=").holds
    assert not Gate("g", None, 4, "==").holds
    assert Gate("g", 1.0, 1.0, "<=").holds and Gate("g", 4, 4, "==").holds
    result = CriterionResult("c", [Gate("x", 0.5, 1.0, "<=", stderr=0.25), Gate("y", None, 4, "==")])
    assert not result.passed
    assert result.line() == "[FAIL] c: x 0.5 <= 1 (bound 4.0 stderr); y None == 4 FAILS"


def test_verify_names_the_failing_gate(capsys):
    """A 4-cell grid resolves no support cycle: the line marks as failing
    each Ulam period gate whose formula period exceeds 1, and no other gate."""
    assert main(["verify", "--only", "periodicity", "--grid", "4"]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("[FAIL] periodicity: ")
    failing = [part.split()[0] for part in line.split(": ", 1)[1].split("; ") if part.endswith(" FAILS")]
    assert failing == [f"ulam_period(a={a})" for a in (1.3, 1.25, 1.1, 1.06)]

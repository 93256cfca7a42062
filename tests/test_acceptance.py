"""Release acceptance suite.

Runs every criterion once at its pinned tolerance, prints one pass/fail
line each, and pins the bytes of the report; `ergclt verify` executes the
same runners.
"""

import hashlib
import os

import pytest

from ergclt.acceptance import CRITERIA, DEFAULT_SEED, crit_determinism, results_to_json, run_acceptance

# sha256 of the report `ergclt verify --out v` writes as v.json: any change to
# a measured value, down to the last bit, must be deliberate.
VERIFY_REPORT_SHA256 = "89e826a84a7e9a9dc4e4b30d135d9b42fbded20ebba66b2cfcffb76cc61e2363"


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

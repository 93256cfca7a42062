"""The benchmark's span installer still finds every name it wraps, and its
counters keep their meaning."""

import importlib.util
import itertools
import pathlib

from ergclt.piecewise import PiecewiseAffineFunction as PAF
from ergclt.clt import three_branch_system

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_spans_install_and_uninstall_restore_every_name():
    """`install` fails on a name a refactor deleted or renamed; `uninstall`
    puts every original object back."""
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patches)


def test_push_span_counts_one_call_per_lag():
    """`transfer.push.calls` counts transfer steps: n lags of `iterates` are
    n pushes, whatever the push does inside."""
    spans = load_spans()
    nt = three_branch_system().transfer
    v = nt.weighted(PAF.step([0.0, 0.1, 0.37, 0.5, 0.81, 1.0], [1.0, -0.3, 0.7, 2.0, -1.1]))
    for n in (1, 7):
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            lags = list(itertools.islice(nt.iterates(v), n))
        finally:
            tracer.uninstall()
        assert len(lags) == n
        assert tracer.calls["transfer.push"] == n

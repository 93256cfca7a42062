"""The benchmark's span installer still finds every name it wraps."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_spans_install_and_uninstall_restore_every_name():
    """`install` fails on a name a refactor deleted or renamed; `uninstall`
    puts every original object back."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patches)

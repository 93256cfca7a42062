"""Spans and counters recorded around calls into the public functions of
each `ergclt` layer, installed from outside the package.

`cli` and `clt` import names directly (`from .clt import sigma2_resolvent`),
so a wrapper installed only on the defining module would miss their calls:
every module-level name is replaced wherever the same function object is
bound.  Methods are patched on their class, which every caller reaches.

A span's self time is its length minus the time its child spans cover.
Hooks that read a result (piece counts, lags, bytes) run outside every
span and are charged to no layer.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack: list[float] = []  # child time covered, one entry per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                h0 = perf_counter()
                hook(self, args, kwargs, result, dt)
                if stack:
                    stack[-1] += perf_counter() - h0
            return result

        return wrapper

    def _count(self, fn, hook):
        """A wrapper that opens no span: the call's time stays with its caller."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            h0 = perf_counter()
            hook(self, args, kwargs, result, 0.0)
            if stack:
                stack[-1] += perf_counter() - h0
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attr: str, wrapper):
        orig = getattr(owner, attr)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [m for m in _ergclt_modules() if m is not owner and m.__dict__.get(attr) is orig]
        for o in owners:
            self._patches.append((o, attr, orig))
            setattr(o, attr, wrapper)

    def span(self, owner, attr: str, name: str, hook=None, adapt=None):
        """Record `owner.attr` as span `name`; `adapt(orig)` may first replace
        the callable with an equivalent one that exposes more of its result."""
        fn = getattr(owner, attr)
        if adapt is not None:
            fn = adapt(fn)
        self._replace(owner, attr, self._wrap(name, fn, hook))

    def count(self, owner, attr: str, hook):
        self._replace(owner, attr, self._count(getattr(owner, attr), hook))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def _ergclt_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "ergclt" or n.startswith("ergclt."))]


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------

def _pw_sum_pieces(tr, args, kwargs, result, dt):
    tr.counters["piecewise.pw_sum.pieces"] += result.num_pieces


def _lags_used(tr, args, kwargs, result, dt):
    tr.counters["clt.lags_used"] += result.truncation_J


def _series_end(tr, args, kwargs, result, dt):
    tr.counters["clt.series"] += 1
    if result[1] is not None:
        tr.counters["clt.series_exhausted"] += 1


def _matvec(tr, args, kwargs, result, dt):
    tr.counters["densities.matvec_nnz"] += args[0].rows.nnz


def _ulam_nnz(tr, args, kwargs, result, dt):
    tr.counters["densities.ulam_matrix.nnz"] += result.rows.nnz


def _with_iterations(tr):
    """An invariant_density that always asks for its info and records the
    iteration count, returning what the caller asked for."""

    def adapt(orig):
        @functools.wraps(orig)
        def invariant_density(op, *args, return_info=False, **kwargs):
            fn, info = orig(op, *args, return_info=True, **kwargs)
            tr.counters["densities.invariant_density.iterations"] += info["iterations"]
            return (fn, info) if return_info else fn

        return invariant_density

    return adapt


def _engine(map_) -> str:
    """The documented engine choice: slope ±2 on every branch runs the bit engine."""
    return "bits" if all(abs(s) == 2.0 for (_, s, _) in map_.branches) else "float"


def _path_steps(tr, args, kwargs, result, dt):
    map_ = args[0]
    steps = args[2] * len(result.paths)
    engine = _engine(map_)
    tr.counters["simulate.path_steps"] += steps
    tr.counters[f"simulate.path_steps.{engine}"] += steps
    tr.counters[f"simulate.partial_sum_paths_s.{engine}"] += dt


def _csv_bytes(tr, args, kwargs, result, dt):
    tr.counters["simulate.csv_bytes"] += _file_bytes(args[1])


def _cli_bytes(tr, args, kwargs, result, dt):
    out = args[0].output_path
    tr.counters["cli.bytes_written"] += _file_bytes(out + ".json", out + ".csv")


def install(tracer: Tracer):
    """Install every span and counter of the per-layer metrics."""
    from ergclt import cli, clt, densities, maps, piecewise, simulate, transfer

    pw = piecewise.PiecewiseAffineFunction
    tracer.span(piecewise, "integrate_product", "piecewise.integrate_product")
    tracer.span(piecewise, "pw_sum", "piecewise.pw_sum", _pw_sum_pieces)
    tracer.span(pw, "pruned", "piecewise.pruned")

    tracer.span(transfer.NormalizedTransfer, "push", "transfer.push")
    tracer.span(transfer, "koopman", "transfer.koopman")

    tracer.count(clt, "autocovariance_sequence", _series_end)
    tracer.span(clt, "sigma2_autocovariance", "clt.sigma2_autocovariance", _lags_used)
    tracer.span(clt, "sigma2_resolvent", "clt.sigma2_resolvent", _lags_used)
    tracer.span(clt, "variance_profile", "clt.variance_profile")
    tracer.span(clt, "variance_profile_dyadic", "clt.variance_profile_dyadic")

    tracer.span(simulate, "dyadic_block_norms", "simulate.dyadic_block_norms")
    tracer.span(simulate, "maximal_inequality_sweep", "simulate.maximal_inequality_sweep")
    tracer.span(simulate, "partial_sum_paths", "simulate.partial_sum_paths", _path_steps)
    tracer.span(simulate, "sample_from_density", "simulate.sample_from_density")
    tracer.span(simulate, "limit_law_check", "simulate.limit_law_check")
    tracer.span(simulate.CltSample, "to_csv", "simulate.to_csv", _csv_bytes)

    tracer.span(maps.PiecewiseLinearMap, "step", "maps.step")
    tracer.span(maps, "tent_support_cycle", "maps.tent_support_cycle")

    tracer.span(densities, "ulam_matrix", "densities.ulam_matrix", _ulam_nnz)
    tracer.span(densities, "invariant_density", "densities.invariant_density", adapt=_with_iterations(tracer))
    tracer.span(densities, "detect_periodicity", "densities.detect_periodicity")
    tracer.span(densities.UlamOperator, "apply_to_masses", "densities.apply_to_masses", _matvec)
    tracer.span(densities, "tent_density", "densities.tent_density")

    for cmd in ("cmd_variance", "cmd_density", "cmd_simulate"):
        tracer.span(cli, cmd, f"cli.{cmd}", _cli_bytes)

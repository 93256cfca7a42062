"""Command-line surface: density tables, variance reports, path simulation,
and the acceptance suite.

Outputs are deterministic functions of the resolved configuration: CSV uses
'.' decimals, '\\n' line endings and a header row; JSON is UTF-8 with
snake_case keys, sorted, and carries schema_version plus the full resolved
config.  Files are written atomically (temp file + rename).  Exit codes:
0 success, 1 criterion failure, 2 usage error, 3 numerical failure
(including an exact operation that would exceed the piece budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, fields

from .clt import (
    DivergenceError,
    sigma2_autocovariance,
    sigma2_resolvent,
    tent_sigma_recursion,
    tent_system,
    three_branch_system,
    variance_profile,
    variance_profile_dyadic,
)
from .densities import (
    ConvergenceError,
    DetectionError,
    detect_periodicity,
    invariant_density,
    resolving_grid,
    ulam_matrix,
)
from .maps import (TENT_DEEPEST_WINDOW, SQRT2, squared_param, tent_map, tent_period, tent_support_cycle,
                   tent_window_exponent, three_branch_map)
from .piecewise import PieceBudgetExceeded
from .simulate import limit_law_check, partial_sum_paths, sample_from_density

SCHEMA_VERSION = 1

# The RunConfig fields each command reads.  A flag or config key outside its
# command's set is a usage error; the JSON still records every field.
READS = {
    "density": ("map_spec", "a", "grid_n", "output_path", "format"),
    "variance": ("map_spec", "a", "truncation_J", "dyadic_levels", "output_path"),
    "simulate": ("map_spec", "a", "steps_n", "paths", "seed", "truncation_J", "output_path"),
    "verify": ("grid_n", "seed", "output_path", "only"),
}

# field -> (flag, argparse keywords); dyadic_levels is set by --config only.
_FLAGS = {
    "map_spec": ("--map", {"choices": ["tent", "three-branch"]}),
    "a": ("--a", {"type": float}),
    "grid_n": ("--grid", {"type": int}),
    "steps_n": ("--steps", {"type": int}),
    "paths": ("--paths", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "truncation_J": ("--trunc", {"type": int}),
    "output_path": ("--out", {}),
    "format": ("--format", {"choices": ["csv", "json"]}),
    "only": ("--only", {"help": "run only criteria whose name contains this string"}),
}


@dataclass
class RunConfig:
    map_spec: str = "tent"
    a: float = 2.0
    grid_n: int = 4096
    steps_n: int = 4096
    paths: int = 4000
    seed: int = 1729
    truncation_J: int = 64
    dyadic_levels: int = 12
    output_path: str = "ergclt_out"
    format: str = "csv"
    only: str | None = None

    def validate(self):
        if self.map_spec not in ("tent", "three_branch"):
            raise ValueError(f"unknown map {self.map_spec!r} (use tent or three_branch)")
        if self.map_spec == "tent" and not 1.0 < self.a <= 2.0:
            raise ValueError("tent parameter must lie in (1, 2]")
        if self.map_spec == "tent" and tent_window_exponent(self.a) > TENT_DEEPEST_WINDOW:
            raise ValueError(f"tent parameter {self.a!r} lies in window m = {tent_window_exponent(self.a)}; "
                             f"float64 resolves the support cycle only up to m = {TENT_DEEPEST_WINDOW}")
        if not 2 <= self.grid_n <= 2**16:
            raise ValueError("grid must lie in [2, 65536]")
        if not 1 <= self.steps_n <= 2**22:
            raise ValueError("steps must lie in [1, 2^22]")
        if not 2 <= self.paths <= 10**6:
            raise ValueError("paths must lie in [2, 10^6]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")
        if not 0 <= self.truncation_J <= 2**16:
            raise ValueError("truncation must lie in [0, 65536]")
        if not 0 <= self.dyadic_levels <= 16:
            raise ValueError("dyadic_levels must lie in [0, 16]")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _atomic_write(path: str, data: str | Iterable[str]):
    """Write the text `data`, or its consecutive pieces, to `path` atomically, through a
    temp file made by an exclusive plain create: the output gets a new file's mode."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".ergclt_tmp" + os.urandom(8).hex())
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_payload(config: RunConfig, body: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "config": asdict(config)}
    payload.update(body)
    return json.dumps(payload, sort_keys=True, default=float) + "\n"


# Rows of the density CSV or cells of its JSON list formatted per write, so
# the whole text is never held.
_BLOCK_ROWS = 4096


def _density_csv(density) -> Iterator[str]:
    """The density table as CSV text, in blocks of _BLOCK_ROWS rows."""
    yield "cell_lo,cell_hi,value\n"
    edges, values = density.breakpoints, density.piece_values()
    for lo in range(0, len(values), _BLOCK_ROWS):
        cuts = list(map(repr, edges[lo:lo + _BLOCK_ROWS + 1].tolist()))
        vals = map(repr, values[lo:lo + _BLOCK_ROWS].tolist())
        yield "\n".join(map(",".join, zip(cuts, cuts[1:], vals))) + "\n"


def _density_json(config: RunConfig, meta: dict, density) -> Iterator[str]:
    """`_json_payload` of meta with the density table as its "cells" list,
    in pieces: the cells are encoded _BLOCK_ROWS at a time, so neither
    the list nor the whole text is held.  Each block is `json.dumps` of its
    cells with the list brackets cut off, and the blocks are joined by the
    list separator, which gives the bytes of the whole list dumped at once."""
    head, tail = _json_payload(config, dict(meta, cells=[])).split('"cells": []', 1)
    yield head + '"cells": ['
    edges, values = density.breakpoints, density.piece_values()
    for lo in range(0, len(values), _BLOCK_ROWS):
        cuts = edges[lo:lo + _BLOCK_ROWS + 1].tolist()
        cells = [{"cell_lo": a, "cell_hi": b, "value": v}
                 for a, b, v in zip(cuts, cuts[1:], values[lo:lo + _BLOCK_ROWS].tolist())]
        yield (", " if lo else "") + json.dumps(cells, sort_keys=True, default=float)[1:-1]
    yield "]" + tail


def cmd_density(config: RunConfig) -> int:
    tent = config.map_spec == "tent"
    need = resolving_grid(config.a) if tent else 2
    if config.grid_n < need:
        raise ValueError(f"grid {config.grid_n} cannot resolve the support cycle at a={config.a!r}: it needs "
                         + (f"{need} cells" if need <= 2**16 else "more than 65536 cells"))
    op = ulam_matrix(tent_map(config.a) if tent else three_branch_map(), config.grid_n)
    density, info = invariant_density(op, return_info=True)
    meta = {
        "residual": info["residual"],
        "iterations": info["iterations"],
        "period_detected": detect_periodicity(op, density),
    }
    if tent:
        meta["period_formula"] = tent_period(config.a)
        if meta["period_detected"] != meta["period_formula"]:
            raise DetectionError(f"the Ulam chain at a={config.a!r}, grid {config.grid_n}, shows period "
                                 f"{meta['period_detected']}, not the formula's {meta['period_formula']}")
        meta["cycle_masses"] = [density.integral(iv.lo, iv.hi) for iv in tent_support_cycle(config.a).intervals]
    if config.format == "json":
        _atomic_write(config.output_path + ".json", _density_json(config, meta, density))
    else:
        _atomic_write(config.output_path + ".csv", _density_csv(density))
        _atomic_write(config.output_path + ".json", _json_payload(config, meta))
    return 0


def cmd_variance(config: RunConfig) -> int:
    body: dict = {}
    if config.map_spec == "three_branch":
        tb = three_branch_system()
        prof = variance_profile(tb.observable, tb.transfer, tb.components, J=config.truncation_J)
        dyad = variance_profile_dyadic(tb.observable, tb.transfer, tb.components, J=config.dyadic_levels)
        body["variance_profile"] = prof.to_dict()
        body["variance_profile_dyadic"] = dyad.to_dict()
    else:
        a = config.a
        system = tent_system(a)
        auto = sigma2_autocovariance(system.observable, system.map, system.transfer,
                                     system.components[0], J=config.truncation_J)
        body["autocov"] = asdict(auto)
        # The base raises at every a <= 2^(1/4): run it before the costliest route, the dyadic series.
        if a > SQRT2:
            # At period 1 the autocov window is the whole support, so the
            # resolvent is the same lag sum, bit for bit.
            body["resolvent"] = dict(body["autocov"], method="resolvent")
        else:
            base_sys = tent_system(squared_param(a))
            base = sigma2_resolvent(base_sys.observable, base_sys.transfer,
                                    J=config.truncation_J)
            sigma = tent_sigma_recursion(a, base)
            body["recursion"] = {
                "sigma": sigma,
                "sigma2": sigma * sigma,
                "base_parameter": squared_param(a),
                "base": asdict(base),
            }
        dyad = variance_profile_dyadic(system.observable, system.transfer,
                                       system.components, J=config.dyadic_levels)
        body["dyadic_series"] = dyad.to_dict()
    _atomic_write(config.output_path + ".json", _json_payload(config, body))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    if config.map_spec == "three_branch":
        system = three_branch_system()
    else:
        system = tent_system(config.a)
    inits = sample_from_density(system.density, config.paths, config.seed)
    t_grid = [0.25, 0.5, 1.0]
    sample = partial_sum_paths(system.map, system.observable, config.steps_n, t_grid,
                               inits, config.seed)
    sample.to_csv(config.output_path + ".csv")
    prof = variance_profile(system.observable, system.transfer, system.components, J=config.truncation_J)
    reports = limit_law_check(sample, prof)
    body = {
        "variance_profile": prof.to_dict(),
        "gof_reports": [asdict(r) for r in reports],
        "marginal_variance": {
            repr(t): float(sample.paths[:, i].var(ddof=1)) for i, t in enumerate(t_grid)
        },
    }
    _atomic_write(config.output_path + ".json", _json_payload(config, body))
    return 0


def cmd_verify(config: RunConfig, given: set) -> int:
    """Run the acceptance suite.  `given` names the fields that a flag or config
    key set: only these make --grid override the criteria's grids and --out write."""
    from .acceptance import results_to_json, run_acceptance

    grid = config.grid_n if "grid_n" in given else None
    results = run_acceptance(only=config.only, seed=config.seed, grid=grid)
    if "output_path" in given:
        _atomic_write(config.output_path + ".json",
                      results_to_json(results, config.seed) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ergclt",
                                description="Invariant densities and CLT diagnostics "
                                            "for piecewise-linear interval maps.")
    p.add_argument("--config", help="key=value file; flags take precedence")
    sub = p.add_subparsers(dest="command", required=True)
    for name, reads in READS.items():
        sp = sub.add_parser(name)
        for key in reads:
            if key in _FLAGS:
                flag, kwargs = _FLAGS[key]
                sp.add_argument(flag, dest=key, **kwargs)
    return p


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _coerce(f, raw: str):
    if f.type == "int":
        return int(raw)
    if f.type == "float":
        return float(raw)
    return raw


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    """The resolved config, and the fields that a config key or flag set."""
    cfg = RunConfig()
    reads = READS[args.command]
    given = set()
    if args.config:
        by_name = {f.name: f for f in fields(RunConfig)}
        for key, raw in _read_config_file(args.config).items():
            if key not in reads:
                raise ValueError(f"{args.command} does not read config key {key!r}")
            setattr(cfg, key, _coerce(by_name[key], raw))
            given.add(key)
    for key in reads:
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
            given.add(key)
    if cfg.map_spec == "three-branch":
        cfg.map_spec = "three_branch"
    return cfg, given


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if extra:
        print(f"error: {args.command} does not take {' '.join(extra)}", file=sys.stderr)
        return 2
    try:
        config, given = _resolve_config(args)
        config.validate()
        handler = {
            "density": cmd_density,
            "variance": cmd_variance,
            "simulate": cmd_simulate,
            "verify": lambda config: cmd_verify(config, given),
        }[args.command]
        return handler(config)
    except (ConvergenceError, DetectionError, DivergenceError, PieceBudgetExceeded) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

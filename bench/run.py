"""Benchmark of the `ergclt` package: one named workload, one seed.

    python3 bench/run.py --workload series|ensemble|pipeline --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the package is imported from `src/`.
After a cold set-up the workload's job list runs in passes, one after
another, until `--seconds` have gone (at least three passes).  Every job's
output is checked once the passes end, and the files a CLI job writes must
repeat byte for byte on every pass.

`--trace 0` reports the end-to-end metrics: the wall and CPU time of the
job list, each job taken at its median over the passes, the process peak
RSS, and the median of five cold set-ups (this process plus four fresh
ones).  `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of `spans.py`, averaged over the traced passes, plus the
tracing overhead (traced minus untraced job-list wall).  The traced and
untraced passes must write the same bytes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every job, its status, time and the peak RSS after it, the provenance of
the run, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_PASSES = {0: 3, 1: 5}  # traced runs: three untraced passes, so their median skips the first
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ERGCLT_THREADS")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _provenance(args, sizes: dict, inputs: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=False)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "ergclt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "job_sizes": sizes,
        "inputs": inputs,
    }


def _fresh_setups(args, count: int) -> list[float]:
    """Cold set-up times, each in a new interpreter, so caches start empty."""
    out = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold_setup.py"), args.workload, str(args.seed), args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if res.returncode != 0:
            raise RuntimeError(f"cold set-up failed: {res.stderr.strip()}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def _run_passes(wl, seconds: float, trace_mode: int, tracer):
    """Run the job list in passes.  Returns per-pass records and, per job,
    the first result or exception, the first-pass peak RSS and the output
    digests seen."""
    passes = []
    first = {}
    digests = {job.name: set() for job in wl.jobs}
    start = perf_counter()
    while True:
        traced = trace_mode == 1 and len(passes) % 2 == 1
        if traced:
            spans.install(tracer)
        wall, cpu = [], []
        try:
            for job in wl.jobs:
                rss0 = _peak_rss_mb()
                raised = None
                t0, c0 = perf_counter(), process_time()
                try:
                    res = job.call()
                except Exception as exc:  # a job that raises is a failed job, not a failed run
                    res, raised = None, exc
                dt, dc = perf_counter() - t0, process_time() - c0
                wall.append(dt)
                cpu.append(dc)
                if job.name not in first:
                    first[job.name] = {"result": res, "raised": raised, "seconds": dt,
                                       "rss_before": rss0, "rss_after": _peak_rss_mb()}
                if job.outputs:
                    digests[job.name].add(workloads.digest(job.outputs))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall": wall, "cpu": cpu})
        elapsed = perf_counter() - start
        typical = statistics.median(sum(p["wall"]) for p in passes)
        if len(passes) >= MIN_PASSES[trace_mode] and elapsed + typical > seconds:
            return passes, first, digests


def _judge(wl, first, digests):
    """Status and reason of every job; a job that raised, or whose files
    changed between passes, fails whatever its check says."""
    out = []
    for job in wl.jobs:
        raised = first[job.name]["raised"]
        if raised is not None:
            status, reason = "fail", f"raised {type(raised).__name__}: {raised}"
        elif len(digests[job.name]) > 1:
            status, reason = "fail", "output bytes differ between passes"
        else:
            try:
                status, reason = job.check(first[job.name]["result"])
            except Exception as exc:  # a check that cannot read the output is a failed job
                status, reason = "fail", f"check raised {type(exc).__name__}: {exc}"
        out.append((job, status, reason))
    return out


def _per_layer(setup_tr, pass_tr, n_traced: int) -> dict:
    """Per-layer metrics: set-up spans once plus the mean over traced passes."""
    def get(kind, key):
        return getattr(setup_tr, kind).get(key, 0.0) + getattr(pass_tr, kind).get(key, 0.0) / n_traced

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    for key in ("piecewise.integrate_product", "piecewise.pw_sum", "transfer.push", "transfer.koopman",
                "simulate.dyadic_block_norms", "maps.step"):
        m[f"{key}.calls"] = (get("calls", key), "count")
    for key in ("piecewise.integrate_product", "piecewise.pw_sum", "piecewise.pruned",
                "transfer.push", "transfer.koopman",
                "clt.sigma2_autocovariance", "clt.variance_profile_dyadic", "clt.sigma2_resolvent",
                "clt.variance_profile",
                "simulate.dyadic_block_norms", "simulate.maximal_inequality_sweep",
                "simulate.partial_sum_paths", "simulate.sample_from_density",
                "simulate.limit_law_check", "simulate.to_csv",
                "maps.step", "maps.tent_support_cycle",
                "densities.ulam_matrix", "densities.invariant_density", "densities.detect_periodicity",
                "densities.tent_density",
                "cli.cmd_variance", "cli.cmd_density", "cli.cmd_simulate"):
        m[f"{key}.self_s"] = (get("self_s", key), "s")
    def c(key):
        return get("counters", key)

    m["piecewise.pieces_mean"] = (ratio(c("piecewise.pw_sum.pieces"), get("calls", "piecewise.pw_sum")), "pieces")
    m["transfer.push.us_per_call"] = (ratio(get("total_s", "transfer.push"), get("calls", "transfer.push"), 1e6), "us")
    m["clt.lags_used"] = (c("clt.lags_used"), "count")
    m["clt.exhausted_frac"] = (ratio(c("clt.series_exhausted"), c("clt.series")), "ratio")
    m["simulate.path_steps"] = (c("simulate.path_steps"), "count")
    for engine in ("bits", "float"):
        m[f"simulate.ns_per_path_step.{engine}"] = (
            ratio(c(f"simulate.partial_sum_paths_s.{engine}"), c(f"simulate.path_steps.{engine}"), 1e9), "ns")
    m["simulate.csv_bytes"] = (c("simulate.csv_bytes"), "bytes")
    m["densities.ulam_matrix.nnz"] = (c("densities.ulam_matrix.nnz"), "count")
    m["densities.invariant_density.iterations"] = (c("densities.invariant_density.iterations"), "count")
    m["densities.matvecs"] = (get("calls", "densities.apply_to_masses"), "count")
    m["densities.ns_per_nnz"] = (ratio(get("total_s", "densities.apply_to_masses"), c("densities.matvec_nnz"), 1e9), "ns")
    m["cli.bytes_written"] = (c("cli.bytes_written"), "bytes")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally: the work directory is removed and a
    # running set-up subprocess is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "ergclt", "__init__.py")):
        print(f"error: no ergclt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (use {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2

    setup_tr = spans.Tracer()
    before = (lambda: spans.install(setup_tr)) if args.trace else None
    try:
        ctx, setup_s = workloads.cold_setup(args.workload, args.seed, args.size, before)
    finally:
        setup_tr.uninstall()
    import ergclt

    if not os.path.abspath(ergclt.__file__).startswith(SRC + os.sep):
        print(f"error: ergclt was imported from {ergclt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups = [setup_s] + ([] if args.trace else _fresh_setups(args, SETUP_REPEATS - 1))

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = workloads.build(args.workload, ctx, args.seed, args.size, workdir)
        pass_tr = spans.Tracer()
        passes, first, digests = _run_passes(wl, args.seconds, args.trace, pass_tr)
        peak_rss = _peak_rss_mb()  # before the checks add work of their own
        wl.verify()
        verdicts = _judge(wl, first, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sizes = workloads.SIZES[args.workload][args.size]
    print(f"# ergclt benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} passes={len(passes)}")
    print("provenance " + json.dumps(_provenance(args, sizes, wl.inputs), sort_keys=True))
    print("pass wall " + " ".join(f"{sum(p['wall']):.4f}{'*' if p['traced'] else ''}" for p in passes)
          + " s (* traced)")
    failed = unexpected = 0
    for job, status, reason in verdicts:
        f = first[job.name]
        failed += status != "ok"
        unexpected += status == "fail"
        note = f"  [{reason}]" if reason else ""
        if status.startswith("known:"):
            note += f"  known defect ({status[6:]}): {workloads.KNOWN_DEFECTS[status[6:]]}"
        print(f"job {job.name}: {status} {f['seconds']:.4f} s, peak RSS after {f['rss_after']:.1f} MiB "
              f"(+{f['rss_after'] - f['rss_before']:.1f}){note}")
    attempted = len(verdicts)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def job_list_s(group, key="wall", kind=None):
        """Time of the job list (or of its jobs of one kind), each job at
        its median over the passes, so a burst of load on the machine during
        one pass moves the figure less than a median of pass totals."""
        return sum((statistics.median(p[key][i] for p in group)
                    for i, job in enumerate(wl.jobs) if kind in (None, job.kind)), 0.0)

    side = {
        "variance_s": (job_list_s(untraced, kind="variance"), "s"),
        "density_s": (job_list_s(untraced, kind="density"), "s"),
        "simulate_s": (job_list_s(untraced, kind="simulate"), "s"),
        "error_frac": (failed / attempted, "ratio"),
    }
    print(f"errors {failed}/{attempted} jobs failed ({unexpected} not explained by a known defect)")
    if args.trace:
        metrics = _per_layer(setup_tr, pass_tr, len(traced))
        density_rises = [first[j.name]["rss_after"] - first[j.name]["rss_before"]
                         for j in wl.jobs if j.kind == "density"]
        metrics["densities.peak_rss_step_mb"] = (max(density_rises, default=0.0), "MiB")
        wall_on, wall_off = job_list_s(traced), job_list_s(untraced)
        metrics["trace.overhead_s"] = (wall_on - wall_off, "s")
        metrics.update(side)
        print(f"trace traced wall {wall_on:.4f} s, untraced wall {wall_off:.4f} s")
    else:
        metrics = {
            "wall_s": (job_list_s(untraced), "s"),
            "cpu_s": (job_list_s(untraced, "cpu"), "s"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        for name, (value, unit) in side.items():
            print(f"metric {name} {value!r} {unit}")
        print("setup runs " + " ".join(f"{s:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks that
each run exits 0, that its last line has exactly the keys `correct`,
`attempted`, `failed` and `metrics`, that the metrics are exactly the
end-to-end (untraced) or per-layer (traced) ones of BENCHMARK.json with the
units listed there, that each is also printed as a `metric` line, and that
the run is correct.  Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            t0 = perf_counter()
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
            )
            label = f"{wl} trace={trace}"
            if res.returncode != 0:
                print(f"FAIL {label}: exit {res.returncode}\n{res.stderr}")
                return 1
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append("run is not correct")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
            missing = [k for k, unit in expected[trace].items() if printed.get(k) != unit]
            if missing:
                problems.append(f"not printed with their unit: {missing}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {result['failed']}/{result['attempted']} jobs failed, "
                  f"{len(got)} metrics, {perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

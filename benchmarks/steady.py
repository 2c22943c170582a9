"""Repeatability check: is each end-to-end metric steady within its bound?

    python3 benchmarks/steady.py --seeds 10
    python3 benchmarks/steady.py --workloads classify-corpus --seeds 5

Runs `run.py --trace 0` once per workload and seed, one run at a time,
and reports for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  A spread below a third
of the bound is steady; setup_s is shown but, as a set-up time, is judged
by its median only.  Exits 1 if a run fails or a spread reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="repeatability of the end-to-end metrics")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr[-2000:]}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "steady" if spread < bounds[name] / 3 else (
                "wide" if spread < bounds[name] else "UNSTEADY")
            if name != "setup_s" and spread >= bounds[name]:
                status = 1
            print(f"  {workload:16s} {name:15s} median={med:<10.4g} q1={q1:<10.4g} q3={q3:<10.4g}"
                  f" spread={spread:.3f} bound={bounds[name]} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())

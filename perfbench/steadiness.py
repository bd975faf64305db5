#!/usr/bin/env python3
"""Steadiness check: the evidence behind BENCHMARK.json's bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--seconds S] [--workload NAME ...]

Runs perfbench/run.py --trace 0 `--runs` times per workload, each with its
own seed, one run at a time, and prints for every end-to-end metric the
median and quartiles of the runs and the spread (q3 - q1) / median next to
the metric's bound. A spread above a third of its bound is flagged: two sets
of runs of the same code would then be likely to disagree by more than the
bound. setup_s is flagged too, though its spread is informational only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    steady = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if run.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {run.returncode})\n{run.stderr[-2000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = values[name]
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median
            flag = "ok" if spread <= bound / 3 else "WIDE"
            if flag == "WIDE" and name != "setup_s":
                steady = False
            print(f"  {workload:16s} {name:18s} median {median:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {flag}", flush=True)
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())

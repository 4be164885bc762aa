#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
spread: the distance between the first and third quartile of its values,
as a share of their median, next to the bound BENCHMARK.json gives it.

Usage, from the root of the checkout:
    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]
With no workload named, every workload in BENCHMARK.json is run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in names:
        runs = [run(bench["command"], w, s, bench["run_seconds"])
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{w}: {len(runs)} seeds")
        for m, bound in bounds.items():
            vals = [r[m] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else ("  over a third" if spread > bound / 3 else "")
            print(f"  {m:20s} median {med:14.6g}  spread {spread:8.4f}  bound {bound:5.3f}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs each workload once
per seed and prints, per metric, the median, the quartile distance as a
share of the median, and the bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads vj-verify range-query \
        --seeds 1 2 3 4 5 [--seconds 10]

A metric is steady when its spread stays well below its bound; the
benchmark aims at a third of the bound. setup_s is exempt from that
bound but is printed too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median if median else float("inf")
            flag = ""
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
                flag = "  <-- over a third of the bound" \
                    if share > bounds[name] / 3 else ""
            print(f"  {name:14s} median {median:14.6f}  spread {share:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()

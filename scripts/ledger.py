#!/usr/bin/env python3
"""Performance ledger: runs perfbench from a parent and a change tree in
alternation and writes every sample, summary and traced counter into one
JSON file (BENCH_<n>.json at the repository root).

    python3 scripts/ledger.py run --parent DIR --change DIR \\
        --pairs 8 --seconds 10 --out BENCH_27.json
    python3 scripts/ledger.py compare BENCH_27.json
    python3 scripts/ledger.py --self-test

`run` calls each tree's own `perfbench/run.py` (from the tree's root, so
each builds its own sources into its own `.bench_build`), for every
workload and seed: one `--trace 1` run per side, then `--pairs`
alternating `--trace 0` pairs, the parent first in even pairs and the
change first in odd ones. Per workload and seed the file holds each
side's samples, the median and quartiles of every end-to-end metric of
BENCHMARK.json, the pairs the change won, and the traced run's exact
counters (the `count` metrics) and per-layer medians (the others). A run
that is not `correct`, that reports failures or that printed no result
stays in the file and is listed under the row's `flags`. `compare`
prints the parent-vs-change tables in Markdown. Python 3 standard
library only; nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["vj-verify", "clp-cluster", "vj-spill", "range-query"]
SEEDS = [20200330, 916023]
SIDES = ("parent", "change")


def end_to_end_metrics():
    """[(name, unit, better)] of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def tree_info(tree):
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree)] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"sha": git("rev-parse", "HEAD"),
            "describe": git("describe", "--always", "--dirty"),
            "nproc": os.cpu_count()}


def parse_run(stdout, returncode):
    """One run's record from perfbench's stdout: the last line's JSON with
    the metrics reduced to their values, or an error record."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit code {returncode}, no result line"}
    return {"correct": result.get("correct"),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {name: m["value"]
                        for name, m in result.get("metrics", {}).items()},
            "units": {name: m["unit"]
                      for name, m in result.get("metrics", {}).items()}}


def run_perfbench(tree, workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    args = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(trace)]
    proc = subprocess.run(args, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    record = parse_run(proc.stdout, proc.returncode)
    units = record.pop("units", {})
    return record, units


def bad(record):
    """Why a run record is flagged, or None."""
    if "error" in record:
        return record["error"]
    if not record["correct"] or record["failed"]:
        return f"correct {record['correct']}, failed {record['failed']}"
    return None


def quartiles(values):
    """(q1, median, q3) as perfbench/spread.py takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs, metrics):
    """The summary of one workload and seed: per end-to-end metric, each
    side's samples, median and quartiles, and the pairs the change won
    (pair i is parent run i against change run i)."""
    summary = {}
    for name, unit, better in metrics:
        entry = {"unit": unit, "better": better}
        samples = {}
        for side in SIDES:
            values = [r["metrics"][name] for r in runs[side]
                      if name in r.get("metrics", {})]
            samples[side] = values
            if values:
                q1, median, q3 = quartiles(values)
                entry[side] = {"samples": values, "median": median,
                               "q1": q1, "q3": q3}
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p.get("metrics", {})
                 and name in c.get("metrics", {})]
        sign = 1 if better == "lower" else -1
        entry["pairs"] = len(pairs)
        entry["wins"] = sum(1 for p, c in pairs if sign * (c - p) < 0)
        if samples["parent"] and samples["change"] and \
                entry["parent"]["median"]:
            entry["ratio"] = entry["change"]["median"] / \
                entry["parent"]["median"]
        summary[name] = entry
    return summary


def traced_record(record, units):
    """A traced run split into exact counters and per-layer medians."""
    if "error" in record:
        return record
    counters = {n: v for n, v in record["metrics"].items()
                if units.get(n) == "count"}
    layers = {n: v for n, v in record["metrics"].items()
              if units.get(n) != "count"}
    return {"correct": record["correct"], "failed": record["failed"],
            "counters": counters, "layers": layers}


def make_row(workload, seed, runs, traced, metrics):
    flags = []
    for side in SIDES:
        for i, record in enumerate(runs[side]):
            why = bad(record)
            if why:
                flags.append(f"{side} run {i}: {why}")
        if side in traced:
            why = bad(dict(traced[side], metrics={}))
            if why:
                flags.append(f"{side} traced run: {why}")
    return {"workload": workload, "seed": seed, "runs": runs,
            "summary": summarize(runs, metrics), "traced": traced,
            "flags": flags}


def command_run(args):
    trees = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    metrics = end_to_end_metrics()
    ledger = {"pairs": args.pairs, "seconds": args.seconds,
              "trees": {side: tree_info(trees[side]) for side in SIDES},
              "rows": []}
    for workload in WORKLOADS:
        for seed in SEEDS:
            traced = {}
            for side in SIDES:
                record, units = run_perfbench(trees[side], workload, seed,
                                              args.seconds, 1)
                traced[side] = traced_record(record, units)
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    record, _ = run_perfbench(trees[side], workload, seed,
                                              args.seconds, 0)
                    runs[side].append(record)
                print(f"ledger: {workload} seed {seed} pair {i + 1}/"
                      f"{args.pairs}", file=sys.stderr)
            row = make_row(workload, seed, runs, traced, metrics)
            ledger["rows"].append(row)
            for flag in row["flags"]:
                print(f"ledger: FLAG {workload} seed {seed}: {flag}",
                      file=sys.stderr)
            # Written after every row, so a cut run keeps what it has.
            Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


def fmt(value):
    if value is None:
        return "–"
    if value == 0 or abs(value) >= 100:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def compare_lines(ledger):
    """The Markdown tables of a ledger: end to end, then the traced
    counters and layers that differ between the sides."""
    out = ["| workload | seed | metric | parent median [q1, q3] | "
           "change median [q1, q3] | ratio | change won |",
           "|---|---|---|---|---|---|---|"]
    for row in ledger["rows"]:
        for name, entry in row["summary"].items():
            cells = []
            for side in SIDES:
                s = entry.get(side)
                cells.append(f"{fmt(s['median'])} [{fmt(s['q1'])}, "
                             f"{fmt(s['q3'])}]" if s else "–")
            ratio = entry.get("ratio")
            out.append(f"| {row['workload']} | {row['seed']} | {name} | "
                       f"{cells[0]} | {cells[1]} | "
                       f"{'–' if ratio is None else f'{ratio:.3f}'} | "
                       f"{entry['wins']}/{entry['pairs']} |")
    out += ["", "| workload | seed | traced | parent | change | ratio |",
            "|---|---|---|---|---|---|"]
    for row in ledger["rows"]:
        parent = row["traced"].get("parent", {})
        change = row["traced"].get("change", {})
        for kind in ("counters", "layers"):
            names = sorted(set(parent.get(kind, {})) |
                           set(change.get(kind, {})))
            for name in names:
                p = parent.get(kind, {}).get(name)
                c = change.get(kind, {}).get(name)
                if kind == "counters" and p == c:
                    continue
                ratio = c / p if p and c is not None else None
                out.append(f"| {row['workload']} | {row['seed']} | {name} | "
                           f"{fmt(p)} | {fmt(c)} | "
                           f"{'–' if ratio is None else f'{ratio:.3f}'} |")
    flags = [f"{row['workload']} seed {row['seed']}: {flag}"
             for row in ledger["rows"] for flag in row["flags"]]
    out += [""] + [f"FLAG {flag}" for flag in flags]
    return out


def command_compare(args):
    ledger = json.loads(Path(args.ledger).read_text())
    print("\n".join(compare_lines(ledger)))
    return 0


def self_test():
    """Checks the summaries and the table on canned perfbench lines."""
    problems = []

    def line(job_s, rss, correct=True, failed=0):
        return json.dumps({"correct": correct, "attempted": 10,
                           "failed": failed, "metrics": {
                               "job_s": {"value": job_s, "unit": "s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"}}})

    metrics = [("job_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]
    parent = [parse_run("build\n" + line(v, 30.0), 0)
              for v in (1.0, 2.0, 3.0, 4.0)]
    change = [parse_run(line(v, r), 0)
              for v, r in ((0.5, 31.0), (2.5, 29.0), (1.0, 30.0),
                           (2.0, 30.0))]
    change[1] = parse_run(line(2.5, 29.0, correct=False), 0)
    for record in parent + change:
        record.pop("units")
    runs = {"parent": parent, "change": change}
    traced_line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                              "metrics": {
                                  "join.candidates": {"value": 7,
                                                      "unit": "count"},
                                  "join.joining_s": {"value": 0.1,
                                                     "unit": "s"}}})
    record = parse_run(traced_line, 0)
    units = record.pop("units")
    traced = {"parent": traced_record(record, units),
              "change": traced_record(parse_run("", 1), {})}
    row = make_row("clp-cluster", 1, runs, traced, metrics)
    job = row["summary"]["job_s"]

    def check(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got}, want {want}")

    check("parent median", job["parent"]["median"], 2.5)
    check("parent quartiles", (job["parent"]["q1"], job["parent"]["q3"]),
          (1.25, 3.75))
    check("change median", job["change"]["median"], 1.5)
    check("ratio", job["ratio"], 0.6)
    # Pairs (1, 0.5), (2, 2.5), (3, 1), (4, 2): the change won 3.
    check("job_s wins", (job["wins"], job["pairs"]), (3, 4))
    check("peak_rss_mb wins", row["summary"]["peak_rss_mb"]["wins"], 1)
    check("flags", row["flags"],
          ["change run 1: correct False, failed 0",
           "change traced run: exit code 1, no result line"])
    check("traced counters", traced["parent"]["counters"],
          {"join.candidates": 7})
    check("traced layers", traced["parent"]["layers"],
          {"join.joining_s": 0.1})
    check("higher is better", summarize(
        runs, [("job_s", "s", "higher")])["job_s"]["wins"], 1)
    table = compare_lines({"rows": [row]})
    want = ("| clp-cluster | 1 | job_s | 2.500 [1.250, 3.750] | "
            "1.500 [0.625, 2.375] | 0.600 | 3/4 |")
    check("table row", want in table, True)
    check("flag line", "FLAG clp-cluster seed 1: change run 1: correct "
          "False, failed 0" in table, True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="check the summaries on canned run lines")
    commands = parser.add_subparsers(dest="command")
    run = commands.add_parser("run", help="measure both trees")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=8)
    run.add_argument("--seconds", type=float, default=10)
    run.add_argument("--out", required=True)
    compare = commands.add_parser("compare", help="print the tables")
    compare.add_argument("ledger")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.command == "run":
        return command_run(args)
    if args.command == "compare":
        return command_compare(args)
    parser.error("give run, compare or --self-test")
    return 2


if __name__ == "__main__":
    sys.exit(main())

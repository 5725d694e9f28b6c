#!/usr/bin/env python3
"""rankjoin benchmark: builds the library and the benchmark binary from
source, makes (or reuses) the correctness reference for the seed, runs
one workload and prints its metrics.

    python3 perfbench/run.py --workload vj-verify --seed 20200330 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The last line of stdout is one JSON object
with keys correct / attempted / failed / metrics. Build output, cached
references, spill files and traces go under $CARGO_TARGET_DIR (default
.bench_build) in the repository. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["vj-verify", "clp-cluster", "vj-spill", "range-query"]
DEFAULT_SEED = 20200330
# Seed kept out of all tuning; later gain claims are re-checked on it.
HELD_OUT_SEED = 916023
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def clean_env(work_dir):
    """The environment without RANKJOIN_* overrides, temp files in work_dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RANKJOIN_")}
    env["TMPDIR"] = str(work_dir)
    return env


def build(out_dir):
    build_dir = out_dir / "build"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build failed: {' '.join(step)}")
    binary = build_dir / "perfbench_bin"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def sources_key():
    """Hash of every source the reference depends on."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(binary, args, work_dir):
    try:
        return subprocess.run([str(binary)] + args, cwd=ROOT,
                              env=clean_env(work_dir), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args[:4])} timed out")


def reference(binary, out_dir, work_dir, workload, seed):
    ref_dir = out_dir / "refs" / sources_key()
    ref_dir.mkdir(parents=True, exist_ok=True)
    path = ref_dir / f"{workload}-{seed}.txt"
    if not path.is_file():
        proc = run_binary(binary, ["--mode", "reference", "--workload",
                                   workload, "--seed", str(seed), "--out",
                                   str(path), "--work-dir", str(work_dir)],
                          work_dir)
        if proc.returncode != 0:
            fail(f"reference for {workload} seed {seed} failed")
    return path


def prepare(workload, seed):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rankjoin sources under {ROOT / 'src'}", 2)
    out_dir = build_root()
    work_dir = out_dir / "work"
    (work_dir / "spill").mkdir(parents=True, exist_ok=True)
    binary = build(out_dir)
    ref = reference(binary, out_dir, work_dir, workload, seed)
    return out_dir, work_dir, binary, ref


def measure(workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (stdout lines, parsed result)."""
    out_dir, work_dir, binary, ref = prepare(workload, seed)
    args = ["--mode", "measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--reference", str(ref), "--work-dir", str(work_dir)]
    if trace:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-{seed}.json")]
    proc = run_binary(binary, args + list(extra), work_dir)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    return lines, json.loads(lines[-1])


def self_test():
    """Checks the benchmark itself: a dropped pair is caught, every
    declared metric is printed with its unit, and the seed changes the
    data. Also cross-checks one reference against the library's
    BruteForceJoin."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    _, result = measure("range-query", DEFAULT_SEED, 1, 0, ["--drop-pair"])
    if result["failed"] == 0 or result["correct"]:
        problems.append("a result with one pair dropped was not caught")
    print(f"drop-pair: failed {result['failed']} of {result['attempted']}")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            _, result = measure(workload, DEFAULT_SEED, 1, trace)
            got = result["metrics"]
            for metric in spec[key]:
                name = metric["name"]
                if name not in got:
                    problems.append(f"{workload} trace={trace}: no {name}")
                elif got[name]["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {name} unit "
                                    f"{got[name]['unit']} != {metric['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload}: undeclared {sorted(extra)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: failures")
            print(f"metrics {workload} trace={trace}: {len(got)} checked")

    out_dir = build_root()
    work_dir = out_dir / "work"
    binary = build(out_dir)
    for workload in WORKLOADS:
        prints = set()
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            proc = run_binary(binary, ["--mode", "fingerprint", "--workload",
                                       workload, "--seed", str(seed),
                                       "--work-dir", str(work_dir)], work_dir)
            prints.add(proc.stdout.split()[0])
        if len(prints) != 2:
            problems.append(f"{workload}: the seed does not change the data")
        print(f"seed {workload}: {sorted(prints)}")

    proc = run_binary(binary, ["--mode", "crosscheck", "--workload",
                               "vj-verify", "--seed", str(DEFAULT_SEED),
                               "--work-dir", str(work_dir)], work_dir)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        problems.append("reference disagrees with BruteForceJoin")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    lines, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a fresh bench metrics-JSON file against a committed baseline.

Both files are JSON-lines as written by bench_common's AppendMetricsJson:
one object per run with "label", "wall_seconds", "measured_makespan_s",
"counters", optional "plan"/"plan_cost", and "metrics" (JobMetrics).

Rows are matched by label plus occurrence index (theta sweeps emit the
same label repeatedly; order within a label is deterministic), so a
baseline and a candidate produced by the same bench matrix line up 1:1.

Two classes of checks:

  * Deterministic fields must match exactly: result counters (the join
    counters snapshot, minus fault.* / obs.* which vary by injection and
    sink health) and the planner's chosen algorithm when a plan is
    embedded. A mismatch means behavior changed, not noise.
  * Timing fields must stay within --tolerance of the baseline ratio.
    wall_seconds is gated row by row and per label, each label's rows
    summed (e.g. every theta of cl-p/ORKU), both above the --min-seconds
    noise floor; measured_makespan_s — a max-task statistic one slow
    task can double — only in aggregate. Most rows sit below the floor,
    so the per-label sums are what catch a slowdown confined to a few
    rows. The aggregate check sums each field over all rows and applies
    the same tolerance. Both sides must come from the same machine: the
    raw ratio is what is gated.

Modes:
  check (default)      exit 1 on any violation
  --only counters      check only the deterministic fields
  --only times         check only the timing fields
  --rerun B C          one more run of the matrix on each side; the
                       timing check reads each row's fastest run per
                       side (repeatable)
  --refresh            overwrite BASELINE with CANDIDATE and exit 0
  --inject-slowdown F  multiply candidate times by F before checking
                       (CI uses 2.0 to prove the gate actually fails)

CI gates counters against the committed baseline and wall time against
the parent tree, built and run in the same job in alternation
(scripts/perf_gate.sh):
  check_bench_regression.py bench/baselines/ci_small.json change_1.json \
      --only counters
  check_bench_regression.py parent_1.json change_1.json --only times \
      --rerun parent_2.json change_2.json

Refreshing a committed baseline (after an intentional perf change):
  RANKJOIN_METRICS_JSON=/tmp/fresh.json bench/<bench> ...
  scripts/check_bench_regression.py bench/baselines/ci_small.json \
      /tmp/fresh.json --refresh
A refresh keeps only the fields the gate reads (label, the timing
fields, counters and plan.algorithm), so the committed baseline stays
small; the per-stage "metrics" blob is dropped.
"""

import argparse
import json
import sys

TIME_FIELDS = ("wall_seconds", "measured_makespan_s")

# Fields stable enough to gate row by row. measured_makespan_s is a
# max-task statistic (sum of per-stage maxima), so one slow task can
# double it — it is only checked in aggregate, where the noise
# averages out.
PER_ROW_FIELDS = ("wall_seconds",)

# Counter prefixes excluded from the exact comparison: fault injection
# and observability-sink health legitimately differ run to run.
VOLATILE_COUNTER_PREFIXES = ("fault.", "obs.")


def load_rows(path, role):
    """Returns {(label, occurrence_index): row}.

    Exits with a clear diagnostic (never a traceback) when the file is
    missing or unreadable, or when a row lacks a usable wall_seconds —
    a baseline missing its timing field would silently disable the
    per-row gate, so it is an input error, not something to skip.
    """
    rows = {}
    seen = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(
                        f"{path}:{line_no}: bad JSON: {e}") from e
                wall = row.get("wall_seconds")
                if not isinstance(wall, (int, float)) or isinstance(
                        wall, bool):
                    raise SystemExit(
                        f"{path}:{line_no}: row "
                        f"{row.get('label', '?')!r} has no numeric "
                        f"wall_seconds (got {wall!r}) — was this file "
                        "written by bench_common's AppendMetricsJson?")
                label = row.get("label", "?")
                index = seen.get(label, 0)
                seen[label] = index + 1
                rows[(label, index)] = row
    except FileNotFoundError:
        hint = (" — run the bench with RANKJOIN_METRICS_JSON and pass "
                "--refresh to create it" if role == "baseline" else "")
        raise SystemExit(
            f"{role} file does not exist: {path}{hint}") from None
    except OSError as e:
        raise SystemExit(f"cannot read {role} {path}: {e}") from e
    return rows


def fastest(runs):
    """Rows of the first run, each timing field the minimum over runs."""
    rows = {key: dict(row) for key, row in runs[0].items()}
    for run in runs[1:]:
        for key, row in run.items():
            if key not in rows:
                continue
            for field in TIME_FIELDS:
                if field in row and field in rows[key]:
                    rows[key][field] = min(rows[key][field], row[field])
    return rows


def gated_fields(row):
    """The part of a row the gate reads; what --refresh writes."""
    slim = {"label": row.get("label", "?")}
    for field in TIME_FIELDS:
        if field in row:
            slim[field] = row[field]
    slim["counters"] = row.get("counters", {})
    algorithm = row.get("plan", {}).get("algorithm")
    if algorithm is not None:
        slim["plan"] = {"algorithm": algorithm}
    return slim


def stable_counters(row):
    return {
        name: value
        for name, value in row.get("counters", {}).items()
        if not name.startswith(VOLATILE_COUNTER_PREFIXES)
    }


def check_exact(key, base, cand, failures):
    label = f"{key[0]}#{key[1]}"
    base_counters = stable_counters(base)
    cand_counters = stable_counters(cand)
    for name in sorted(set(base_counters) | set(cand_counters)):
        b = base_counters.get(name)
        c = cand_counters.get(name)
        if b != c:
            failures.append(
                f"{label}: counter {name}: baseline {b} != candidate {c}")
    base_algo = base.get("plan", {}).get("algorithm")
    cand_algo = cand.get("plan", {}).get("algorithm")
    if base_algo != cand_algo:
        failures.append(
            f"{label}: planner pick changed: "
            f"{base_algo} -> {cand_algo}")


def check_times(keys, base_rows, cand_rows, tolerance, slowdown,
                min_seconds, failures):
    for field in TIME_FIELDS:
        ratios = {}
        label_totals = {}
        base_total = 0.0
        cand_total = 0.0
        for key in keys:
            b = base_rows[key].get(field)
            c = cand_rows[key].get(field)
            if b is None or c is None or b <= 0:
                continue
            base_total += b
            cand_total += c * slowdown
            if field in PER_ROW_FIELDS:
                if b >= min_seconds:
                    ratios[key] = (c * slowdown) / b
                totals = label_totals.setdefault(key[0], [0.0, 0.0])
                totals[0] += b
                totals[1] += c * slowdown
        for key, ratio in sorted(ratios.items()):
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"{key[0]}#{key[1]}: {field} regressed "
                    f"{(ratio - 1.0) * 100:.1f}% over baseline "
                    f"(ratio {ratio:.3f}, tolerance {tolerance * 100:.0f}%)")
        for label, (b, c) in sorted(label_totals.items()):
            if b >= min_seconds and c / b > 1.0 + tolerance:
                failures.append(
                    f"{label}: summed {field} of its rows regressed "
                    f"{(c / b - 1.0) * 100:.1f}% over baseline "
                    f"({c:.3f}s vs {b:.3f}s, "
                    f"tolerance {tolerance * 100:.0f}%)")
        # Aggregate: per-row noise averages out over the whole matrix,
        # so the summed time is the stablest signal.
        if base_total > 0:
            total_ratio = cand_total / base_total
            if total_ratio > 1.0 + tolerance:
                failures.append(
                    f"<aggregate>: total {field} regressed "
                    f"{(total_ratio - 1.0) * 100:.1f}% over baseline "
                    f"({cand_total:.3f}s vs {base_total:.3f}s, "
                    f"tolerance {tolerance * 100:.0f}%)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="committed baseline JSON-lines")
    parser.add_argument("candidate", help="freshly produced JSON-lines")
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional slowdown per row (default 0.5)")
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="skip the per-row and per-label time checks when the "
             "baseline row (or label sum) is below this (noise floor, "
             "default 0.05); such rows still count toward their label "
             "and the aggregate check")
    parser.add_argument(
        "--only", choices=("counters", "times"),
        help="run only the exact counter check or only the timing check")
    parser.add_argument(
        "--rerun", nargs=2, action="append", default=[],
        metavar=("BASELINE", "CANDIDATE"),
        help="one more run on each side; times are each row's fastest "
             "run per side")
    parser.add_argument(
        "--refresh", action="store_true",
        help="overwrite BASELINE with CANDIDATE instead of checking")
    parser.add_argument(
        "--inject-slowdown", type=float, default=1.0, metavar="F",
        help="multiply candidate times by F before checking (CI "
             "self-test: 2.0 must fail)")
    args = parser.parse_args()

    if args.refresh:
        # Validate before overwriting: a candidate with malformed rows
        # must not become the committed baseline. Rows keep their file
        # order, so label occurrence indices line up as before.
        load_rows(args.candidate, "candidate")
        try:
            with open(args.candidate, encoding="utf-8") as src:
                rows = [json.loads(line) for line in src if line.strip()]
            with open(args.baseline, "w", encoding="utf-8") as f:
                for row in rows:
                    f.write(json.dumps(gated_fields(row),
                                       separators=(",", ":")) + "\n")
        except OSError as e:
            raise SystemExit(
                f"cannot refresh baseline {args.baseline}: {e}") from e
        print(f"baseline refreshed: {args.baseline}")
        return 0

    base_rows = load_rows(args.baseline, "baseline")
    cand_rows = load_rows(args.candidate, "candidate")
    base_runs = [base_rows]
    cand_runs = [cand_rows]
    for base_path, cand_path in args.rerun:
        base_runs.append(load_rows(base_path, "baseline"))
        cand_runs.append(load_rows(cand_path, "candidate"))
    failures = []

    base_keys = set(base_rows)
    cand_keys = set(cand_rows)
    for key in sorted(base_keys - cand_keys):
        failures.append(f"{key[0]}#{key[1]}: missing from candidate")
    for key in sorted(cand_keys - base_keys):
        failures.append(f"{key[0]}#{key[1]}: not in baseline "
                        "(new bench row? --refresh the baseline)")

    common = sorted(base_keys & cand_keys)
    if args.only != "times":
        for key in common:
            check_exact(key, base_rows[key], cand_rows[key], failures)
    if args.only != "counters":
        check_times(common, fastest(base_runs), fastest(cand_runs),
                    args.tolerance, args.inject_slowdown, args.min_seconds,
                    failures)

    if failures:
        print(f"FAIL: {len(failures)} regression(s) vs {args.baseline}")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"OK: {len(common)} row(s) within tolerance of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

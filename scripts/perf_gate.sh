#!/usr/bin/env bash
# The performance-regression gate of CI, runnable locally:
#
#   scripts/perf_gate.sh PARENT_BUILD_DIR CHANGE_BUILD_DIR [OUT_DIR]
#
# Both build trees must be configured for Release; the script builds
# the benches below in each. The small bench matrix runs from the parent
# and the change in alternation, twice each, with counters traced and
# metrics JSON written to OUT_DIR (default: a fresh temp dir). Then:
#
#  1. the change's counters must equal bench/baselines/ci_small.json
#     exactly (a difference is a behavior change);
#  2. the change's wall time must stay within the checker's tolerance of
#     the parent's, per row and in aggregate, each row taking its fastest
#     run per side (both sides run on the same machine, so the raw ratio
#     is gated);
#  3. the timing check must fire on the change's own run with an
#     injected uniform 2x slowdown, which proves it can fail.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,4p' "$0" >&2
  exit 2
fi
parent=$1
change=$2
out=${3:-$(mktemp -d)}
mkdir -p "$out"
root=$(cd "$(dirname "$0")/.." && pwd)
check="$root/scripts/check_bench_regression.py"
benches=(fig12_partitions search_sweet_spot outlook_jaccard
         fig10_partitioning_threshold)

for build in "$parent" "$change"; do
  cmake --build "$build" -j"$(nproc)" --target "${benches[@]}"
done

run_matrix() {  # BUILD_DIR OUT_JSON
  rm -f "$2"
  for bench in "${benches[@]}"; do
    RANKJOIN_TRACE_LEVEL=counters RANKJOIN_METRICS_JSON="$2" \
      "$1/bench/$bench" > /dev/null
  done
}

for round in 1 2; do
  run_matrix "$parent" "$out/parent_$round.json"
  run_matrix "$change" "$out/change_$round.json"
done

echo "== counters against bench/baselines/ci_small.json"
"$check" "$root/bench/baselines/ci_small.json" "$out/change_1.json" \
  --only counters
echo "== wall time against the parent tree"
"$check" "$out/parent_1.json" "$out/change_1.json" --only times \
  --rerun "$out/parent_2.json" "$out/change_2.json"
echo "== self-test: an injected 2x slowdown must fail"
if "$check" "$out/change_1.json" "$out/change_1.json" --only times \
     --inject-slowdown 2; then
  echo "gate did not fire on an injected 2x slowdown" >&2
  exit 1
fi
echo "perf gate: OK ($out)"

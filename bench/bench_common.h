#ifndef RANKJOIN_BENCH_BENCH_COMMON_H_
#define RANKJOIN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/similarity_join.h"
#include "data/generator.h"
#include "data/scale.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin::bench {

/// Named benchmark datasets — reproduction-scale stand-ins for the
/// paper's DBLP/ORKU workloads (see DESIGN.md). Deterministic; built on
/// first use and cached for the lifetime of the process.
///
///   DBLP     4,000 top-10 rankings, strongly skewed vocabulary
///   DBLPx5   DBLP scaled 5x with the method of [10, 24]
///   DBLPx10  DBLP scaled 10x
///   ORKU     6,000 top-10 rankings, larger vocabulary
///   ORKUx5   ORKU scaled 5x
///   ORKU25   4,500 top-25 rankings (paper Fig. 11)
///   MMAP     the columnar file named by --mmap, loaded zero-copy
const RankingDataset& GetDataset(const std::string& name);

/// Benchmark-process configuration shared by every figure binary,
/// parsed from the common CLI flags:
///
///   --mmap FILE           register FILE (binary columnar RKJC format,
///                         data/io.h) as dataset "MMAP"
///   --pipelined           overlap shuffle write/read stages (same as
///                         RANKJOIN_PIPELINED_STAGES=1)
///
/// RunOnce consults this config for every run.
struct BenchConfig {
  std::string mmap_path;
  bool pipelined = false;
};

/// The process-wide benchmark configuration (mutable).
BenchConfig& Config();

/// Parses the common flags above out of argv into Config(). Flags the
/// helper does not recognize are left for the caller (their indices are
/// returned); exits on malformed values of recognized flags.
std::vector<int> ParseCommonFlags(int argc, char** argv);

/// One benchmark measurement.
struct RunOutcome {
  double seconds = 0;
  size_t pairs = 0;
  JoinStats stats;
  /// Serialized JoinPlan (JoinResult::plan_json) when the run used
  /// Algorithm::kAuto; empty otherwise.
  std::string plan_json;
  /// Planner-predicted cost of the executed strategy in abstract work
  /// units (JoinResult::predicted_cost); 0 unless the run was
  /// auto-planned or RunOptions::predicted_cost supplied one.
  double predicted_cost = 0;
  /// Simulated cluster makespans for this run, per worker count
  /// requested in RunOptions::simulate_workers.
  std::map<int, double> makespan;
  bool dnf = false;  // exceeded the budget (reported like the paper's >10h)
};

struct RunOptions {
  int num_partitions = 64;
  int num_workers = 4;
  /// Worker counts for which to compute the simulated cluster makespan.
  std::vector<int> simulate_workers;
  /// Runs whose predecessors (same algorithm/dataset, smaller theta)
  /// already exceeded this budget are skipped and reported DNF, like the
  /// paper's 10-hour cut-off. <= 0 disables.
  double budget_seconds = 0;
  /// Planner-predicted cost (work units) to embed in the run's
  /// metrics-JSON row — for callers that planned out-of-band
  /// (search_sweet_spot runs each strategy explicitly against one
  /// plan). Auto-planned runs override this with the JoinResult's own
  /// predicted cost.
  double predicted_cost = 0;
};

/// Runs one algorithm configuration and measures wall time plus the
/// simulated-cluster metrics. Exits the process on configuration errors
/// (benchmarks are developer tools). When the RANKJOIN_METRICS_JSON
/// environment variable names a file, every run appends one JSON-lines
/// record of its engine metrics there (see AppendMetricsJson) — set
/// RANKJOIN_TRACE_LEVEL=counters too to include per-operator counts and
/// the filter-effectiveness counters.
RunOutcome RunOnce(const std::string& dataset, SimilarityJoinConfig config,
                   const RunOptions& options);

/// Value of the RANKJOIN_METRICS_JSON environment variable, or "" when
/// unset.
std::string MetricsJsonPath();

/// Single-line JSON object builder — the one way every bench emits a
/// machine-readable row (both the RANKJOIN_METRICS_JSON sink and
/// fig08's stdout records), so there is exactly one schema idiom.
/// Strings are escaped; Raw embeds pre-serialized JSON verbatim.
class JsonRow {
 public:
  JsonRow& Str(const std::string& key, const std::string& value);
  JsonRow& Num(const std::string& key, double value);
  JsonRow& Int(const std::string& key, uint64_t value);
  JsonRow& Bool(const std::string& key, bool value);
  JsonRow& Raw(const std::string& key, const std::string& json);
  /// The finished "{...}" object (no trailing newline).
  std::string Finish() const;

 private:
  JsonRow& Key(const std::string& key);
  std::ostringstream body_;
  bool first_ = true;
};

/// Peak resident set of this process in KiB (getrusage).
uint64_t MaxRssKb();

/// Everything one metrics-JSON row carries besides the context.
struct MetricsRowInfo {
  std::string label;
  /// Embedded as "plan" when non-empty (JoinPlan::ToJson).
  std::string plan_json;
  /// Planner-predicted cost in work units; emitted as "plan_cost" when
  /// > 0, sibling to the always-present "measured_makespan_s" — the
  /// predict-vs-actual pair the cost-model refit reads back.
  double predicted_cost = 0;
  /// Measured wall seconds of the run; emitted when >= 0.
  double wall_seconds = -1;
};

/// Appends one JSON-lines record to `path`:
///   {"label": ..., "wall_seconds": ..., "plan_cost": ...,
///    "measured_makespan_s": <SimulatedMakespan(kPaperExecutors)>,
///    "max_rss_kb": ..., "counters": {...},
///    "plan": <JoinPlan::ToJson()>, "metrics": <JobMetrics::ToJson()>}
/// Optional fields appear per MetricsRowInfo. Newlines inside the
/// metrics dump are stripped so each run stays one line (JSON-lines;
/// `jq` per line). An unwritable path degrades gracefully: one warning
/// per process, counter obs.sink.degraded, and the run continues —
/// metrics dumping never fails a benchmark.
void AppendMetricsJson(minispark::Context& ctx, const MetricsRowInfo& info,
                       const std::string& path);

/// Tracks budget exhaustion across a sweep: once a (key) run blows the
/// budget, later runs with the same key report DNF immediately.
class BudgetTracker {
 public:
  explicit BudgetTracker(double budget_seconds)
      : budget_seconds_(budget_seconds) {}

  /// Returns false (-> emit DNF) if `key` has already exceeded the
  /// budget; otherwise true.
  bool ShouldRun(const std::string& key) const;

  /// Records a finished run.
  void Record(const std::string& key, double seconds);

  double budget_seconds() const { return budget_seconds_; }

 private:
  double budget_seconds_;
  std::map<std::string, bool> exhausted_;
};

/// Formats the wall time in seconds ("12.345") or "DNF".
std::string FormatTime(const RunOutcome& outcome);

/// Formats the simulated cluster makespan for `workers` slots (the
/// metric matching the paper's cluster execution times; see DESIGN.md),
/// or "DNF". The worker count must have been requested in
/// RunOptions::simulate_workers.
std::string FormatMakespan(const RunOutcome& outcome, int workers);

/// Executor-slot count mirroring the paper's Spark setup (Table 3:
/// 24 executors).
inline constexpr int kPaperExecutors = 24;

/// Prints an aligned table: header row then data rows. Every cell is a
/// preformatted string; column widths adapt to content.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  /// Writes the table to stdout, prefixed by `title` as a '#' comment.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Asserts that every optional count in `counts` that is set agrees;
/// when they diverge, prints the mismatch and exits the process with
/// status 1, so a bench run in CI fails on a wrong answer (the benches
/// double as integration checks).
void CheckAgreement(const std::string& context,
                    const std::vector<std::optional<size_t>>& counts);

}  // namespace rankjoin::bench

#endif  // RANKJOIN_BENCH_BENCH_COMMON_H_

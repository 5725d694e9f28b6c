#include "bench/bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/stopwatch.h"
#include "data/io.h"
#include "minispark/trace.h"

namespace rankjoin::bench {
namespace {

RankingDataset BuildDataset(const std::string& name) {
  if (name == "MMAP") {
    if (Config().mmap_path.empty()) {
      std::fprintf(stderr,
                   "dataset MMAP requires --mmap FILE on the command line\n");
      std::exit(1);
    }
    auto mapped = MapFlatRankings(Config().mmap_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "--mmap %s: %s\n", Config().mmap_path.c_str(),
                   mapped.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*mapped);
  }
  if (name == "DBLP") return GenerateDataset(DblpLikeOptions());
  if (name == "ORKU") return GenerateDataset(OrkuLikeOptions());
  if (name == "ORKU25") return GenerateDataset(OrkuLikeK25Options());
  if (name == "DBLPx5") {
    return ScaleDataset(GetDataset("DBLP"), 5, DblpLikeOptions().domain_size);
  }
  if (name == "DBLPx10") {
    return ScaleDataset(GetDataset("DBLP"), 10,
                        DblpLikeOptions().domain_size);
  }
  if (name == "ORKUx5") {
    return ScaleDataset(GetDataset("ORKU"), 5, OrkuLikeOptions().domain_size);
  }
  std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
  std::exit(1);
}

}  // namespace

const RankingDataset& GetDataset(const std::string& name) {
  // Never destroyed (static-pointer pattern): benchmark process scope.
  static auto* cache = new std::map<std::string, RankingDataset>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, BuildDataset(name)).first;
  }
  return it->second;
}

BenchConfig& Config() {
  static BenchConfig config;
  return config;
}

std::vector<int> ParseCommonFlags(int argc, char** argv) {
  std::vector<int> rest;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--mmap")) {
      Config().mmap_path = next("--mmap");
    } else if (!std::strcmp(argv[i], "--pipelined")) {
      Config().pipelined = true;
    } else {
      rest.push_back(i);
    }
  }
  return rest;
}

RunOutcome RunOnce(const std::string& dataset, SimilarityJoinConfig config,
                   const RunOptions& options) {
  const RankingDataset& data = GetDataset(dataset);
  minispark::Context ctx({.num_workers = options.num_workers,
                          .default_partitions = options.num_partitions,
                          .pipelined_stages = Config().pipelined});
  if (config.num_partitions <= 0) {
    config.num_partitions = options.num_partitions;
  }

  Stopwatch watch;
  auto result = RunSimilarityJoin(&ctx, data, config);
  RunOutcome outcome;
  outcome.seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark run failed (%s on %s): %s\n",
                 AlgorithmName(config.algorithm), dataset.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  outcome.pairs = result->pairs.size();
  outcome.stats = result->stats;
  outcome.plan_json = result->plan_json;
  outcome.predicted_cost = result->predicted_cost > 0
                               ? result->predicted_cost
                               : options.predicted_cost;
  for (int workers : options.simulate_workers) {
    outcome.makespan[workers] = ctx.metrics().SimulatedMakespan(workers);
  }
  if (const std::string path = MetricsJsonPath(); !path.empty()) {
    MetricsRowInfo info;
    info.label =
        std::string(AlgorithmName(config.algorithm)) + "/" + dataset;
    info.plan_json = outcome.plan_json;
    info.predicted_cost = outcome.predicted_cost;
    info.wall_seconds = outcome.seconds;
    AppendMetricsJson(ctx, info, path);
  }
  return outcome;
}

std::string MetricsJsonPath() {
  const char* path = std::getenv("RANKJOIN_METRICS_JSON");
  return path == nullptr ? std::string() : std::string(path);
}

JsonRow& JsonRow::Key(const std::string& key) {
  if (!first_) body_ << ",";
  first_ = false;
  body_ << "\"" << minispark::internal::JsonEscape(key) << "\":";
  return *this;
}

JsonRow& JsonRow::Str(const std::string& key, const std::string& value) {
  Key(key).body_ << "\"" << minispark::internal::JsonEscape(value) << "\"";
  return *this;
}

JsonRow& JsonRow::Num(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  Key(key).body_ << buffer;
  return *this;
}

JsonRow& JsonRow::Int(const std::string& key, uint64_t value) {
  Key(key).body_ << value;
  return *this;
}

JsonRow& JsonRow::Bool(const std::string& key, bool value) {
  Key(key).body_ << (value ? "true" : "false");
  return *this;
}

JsonRow& JsonRow::Raw(const std::string& key, const std::string& json) {
  Key(key).body_ << json;
  return *this;
}

std::string JsonRow::Finish() const {
  std::string out = "{";
  out += body_.str();
  out += "}";
  return out;
}

uint64_t MaxRssKb() { return minispark::ReadSelfUsage().max_rss_kb; }

void AppendMetricsJson(minispark::Context& ctx, const MetricsRowInfo& info,
                       const std::string& path) {
  std::string metrics = ctx.metrics().ToJson();
  metrics.erase(std::remove(metrics.begin(), metrics.end(), '\n'),
                metrics.end());
  JsonRow row;
  row.Str("label", info.label);
  if (info.wall_seconds >= 0) row.Num("wall_seconds", info.wall_seconds);
  if (info.predicted_cost > 0) row.Num("plan_cost", info.predicted_cost);
  // The measured counterpart of plan_cost: same simulated-cluster model
  // the planner targets, so refits compare like against like. plan_cost
  // is abstract work units, this is seconds — siblings, not the same
  // scale.
  row.Num("measured_makespan_s",
          ctx.metrics().SimulatedMakespan(kPaperExecutors));
  row.Int("max_rss_kb", MaxRssKb());
  {
    std::ostringstream counters;
    bool first = true;
    for (const auto& [name, value] : ctx.counters().Snapshot()) {
      if (!first) counters << ",";
      first = false;
      counters << "\"" << minispark::internal::JsonEscape(name)
               << "\":" << value;
    }
    std::string object = "{";
    object += counters.str();
    object += "}";
    row.Raw("counters", object);
  }
  // plan_json is already serialized JSON (JoinPlan::ToJson) — embedded
  // as an object, not re-escaped.
  if (!info.plan_json.empty()) row.Raw("plan", info.plan_json);
  row.Raw("metrics", metrics);
  std::ofstream out(path, std::ios::app);
  out << row.Finish() << "\n";
  if (!out) {
    // Degrade, don't fail: metrics are observability, the run's results
    // still stand. One warning per process; the counter lets tests and
    // dashboards see that rows were dropped.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr, "warning: could not append metrics to %s\n",
                   path.c_str());
    }
    ctx.counters().Add("obs.sink.degraded", 1);
    ctx.telemetry().MarkSinkDegraded();
  }
}

bool BudgetTracker::ShouldRun(const std::string& key) const {
  auto it = exhausted_.find(key);
  return it == exhausted_.end() || !it->second;
}

void BudgetTracker::Record(const std::string& key, double seconds) {
  if (budget_seconds_ > 0 && seconds > budget_seconds_) {
    exhausted_[key] = true;
  }
}

std::string FormatTime(const RunOutcome& outcome) {
  if (outcome.dnf) return "DNF";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", outcome.seconds);
  return buffer;
}

std::string FormatMakespan(const RunOutcome& outcome, int workers) {
  if (outcome.dnf) return "DNF";
  auto it = outcome.makespan.find(workers);
  if (it == outcome.makespan.end()) return "?";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", it->second);
  return buffer;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void Table::Print(const std::string& title) const {
  std::printf("# %s\n", title.c_str());
  std::vector<size_t> width(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&width](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s", static_cast<int>(width[c]) + 2, row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
  std::printf("\n");
  std::fflush(stdout);
}

void CheckAgreement(const std::string& context,
                    const std::vector<std::optional<size_t>>& counts) {
  std::optional<size_t> reference;
  for (const auto& count : counts) {
    if (!count.has_value()) continue;
    if (!reference.has_value()) {
      reference = count;
    } else if (*reference != *count) {
      std::printf("!! RESULT MISMATCH at %s: %zu vs %zu\n", context.c_str(),
                  *reference, *count);
      std::fflush(stdout);
      std::exit(1);
    }
  }
}

}  // namespace rankjoin::bench

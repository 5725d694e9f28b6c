// rankjoin benchmark driver binary. perfbench/run.py builds it and runs
// it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_bin --mode reference --workload W --seed N --out FILE
//   perfbench_bin --mode measure --workload W --seed N --seconds S
//                 --trace 0|1 --reference FILE --work-dir DIR
//                 [--trace-out FILE] [--drop-pair]
//   perfbench_bin --mode fingerprint --workload W --seed N --work-dir DIR
//   perfbench_bin --mode crosscheck --workload W --seed N --work-dir DIR
//
// Every timed operation goes through the public API: a join job is
// minispark::Context construction, RunSimilarityJoin and Context
// teardown; a query is PrefixRangeIndex::Query. Every result is checked
// against the reference. The last stdout line is one JSON object with
// keys correct / attempted / failed / metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/similarity_join.h"
#include "join/brute_force.h"
#include "minispark/context.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"
#include "search/range_search.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rankjoin::minispark::Context;

struct Args {
  std::string mode = "measure";
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string out;
  std::string work_dir = ".";
  std::string trace_out;
  bool drop_pair = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--mode") {
      a.mode = value();
    } else if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--reference") {
      a.reference = value();
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--drop-pair") {
      a.drop_pair = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

// Timed queries per block of the tail-latency estimate: p99 of 1000
// leaves 10 samples beyond it.
constexpr size_t kQueryBlock = 1000;

// p99 of each block of kQueryBlock consecutive latencies, then the median
// over blocks. A burst of interference from outside the process (the
// machine is shared) inflates the blocks it hits, not the reported p99.
double BlockP99(const std::vector<double>& us) {
  std::vector<double> p99s;
  for (size_t b = 0; b + kQueryBlock <= us.size(); b += kQueryBlock) {
    p99s.emplace_back(Percentile(
        std::vector<double>(us.begin() + static_cast<ptrdiff_t>(b),
                            us.begin() + static_cast<ptrdiff_t>(b + kQueryBlock)),
        0.99));
  }
  return Median(p99s);
}

// ---------------------------------------------------------------------
// Metric catalogue. `exact` marks values that repeat bit-for-bit at a
// given seed; the others depend on timing or scheduling.

struct MetricDef {
  const char* name;
  const char* unit;
  bool exact;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},        {"job_s", "s", false},
    {"job_cpu_s", "s", false},      {"query_us_p50", "us", false},
    {"query_us_p99", "us", false},  {"peak_rss_mb", "MB", false},
};

const MetricDef kPerLayer[] = {
    {"data.generate_s", "s", false},
    {"data.map_s", "s", false},
    {"join.ordering_s", "s", false},
    {"join.clustering_s", "s", false},
    {"join.joining_s", "s", false},
    {"join.expansion_s", "s", false},
    {"join.unattributed_frac", "fraction", false},
    {"join.candidates", "count", true},
    {"join.position_filtered", "count", true},
    {"join.triangle_filtered", "count", true},
    {"join.verified", "count", true},
    {"join.verify_passed", "count", true},
    {"join.emitted_unverified", "count", true},
    {"join.result_pairs", "count", true},
    {"join.clusters", "count", true},
    {"join.singletons", "count", true},
    {"join.lists_repartitioned", "count", true},
    {"join.chunk_pair_joins", "count", true},
    {"join.verify_yield", "fraction", true},
    {"join.dup_factor", "ratio", true},
    {"join.ns_per_verified", "ns", false},
    {"ranking.verify_ns", "ns", false},
    {"ranking.canonicalize_ns", "ns", false},
    {"minispark.stages", "count", true},
    {"minispark.tasks", "count", true},
    {"minispark.task_s", "s", false},
    {"minispark.queue_wait_us_p50", "us", false},
    {"minispark.queue_wait_us_p99", "us", false},
    {"minispark.task_us_p99", "us", false},
    {"minispark.shuffle_records", "count", true},
    {"minispark.shuffle_mb", "MB", true},
    {"minispark.materialized_mb", "MB", true},
    {"minispark.spilled_mb", "MB", false},
    {"minispark.spilled_runs", "count", false},
    {"minispark.shuffle_write_task_s", "s", false},
    {"minispark.shuffle_read_task_s", "s", false},
    {"minispark.task_retries", "count", true},
    {"minispark.makespan24_s", "s", false},
    {"search.candidates_per_query", "count", true},
    {"search.verified_per_query", "count", true},
    {"trace.overhead_frac", "fraction", false},
};

/// Samples per metric name; reported as their median.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : Median(it->second);
  }
  size_t CountOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }
  /// True when every sample of `name` is the same value.
  bool Constant(const std::string& name) const {
    auto it = samples_.find(name);
    if (it == samples_.end()) return true;
    const std::vector<double>& v = it->second;
    return std::all_of(v.begin(), v.end(),
                       [&](double x) { return x == v.front(); });
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------
// Set-up: inputs, index, warm-up.

struct Prepared {
  std::unique_ptr<Inputs> inputs;
  std::optional<rankjoin::PrefixRangeIndex> index;
};

/// Outcome of one checked operation.
struct OpResult {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
};

struct Bench {
  const WorkloadSpec& w;
  const Args& args;
  const Reference& ref;
  SpanRecorder spans;
  Samples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int next_job = 0;

  Bench(const WorkloadSpec& workload, const Args& a, const Reference& r)
      : w(workload), args(a), ref(r), spans(a.trace) {}

  Context::Options ContextOptions() const {
    Context::Options options;
    options.num_workers = w.workers;
    options.default_partitions = w.partitions;
    options.shuffle_memory_budget_bytes = w.shuffle_budget_bytes;
    options.spill_dir = args.work_dir + "/spill";
    return options;
  }

  rankjoin::SimilarityJoinConfig JoinConfig() const {
    rankjoin::SimilarityJoinConfig config;
    config.algorithm = w.algorithm;
    config.theta = w.theta;
    config.theta_c = w.theta_c;
    config.delta = w.delta;
    return config;
  }

  std::unique_ptr<Prepared> Setup() {
    auto p = std::make_unique<Prepared>();
    GenerateTimes times;
    p->inputs = MakeInputs(w, args.seed, args.work_dir + "/data.rkjc",
                           &spans, &times);
    samples.Add("data.generate_s", times.generate_s);
    samples.Add("data.map_s", times.map_s);
    ScopedSpan span(&spans, "search.PrefixRangeIndex::Build", "search");
    auto index = rankjoin::PrefixRangeIndex::Build(p->inputs->data, w.theta);
    if (!index.ok()) {
      std::fprintf(stderr, "perfbench: index build: %s\n",
                   index.status().ToString().c_str());
      std::exit(1);
    }
    p->index.emplace(std::move(*index));
    return p;
  }

  /// Counts one checked operation.
  OpResult Count(OpResult r) {
    ++attempted;
    if (!r.ok) ++failed;
    return r;
  }

  // -------------------------------------------------------------------
  // One join job: Context construction, RunSimilarityJoin, teardown.
  // `traced` records spans and the layer numbers; reading the engine
  // metrics between the join and the teardown is left out of the time.
  OpResult Job(const Prepared& p, bool traced) {
    const bool was_enabled = spans.enabled();
    spans.set_enabled(traced);
    spans.set_job(next_job++);
    const int job_span = spans.Begin("job", "core");

    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Context> ctx;
    {
      ScopedSpan span(&spans, "minispark.Context::Context", "minispark");
      ctx = std::make_unique<Context>(ContextOptions());
    }
    rankjoin::Result<rankjoin::JoinResult> result =
        rankjoin::Status::Internal("not run");
    {
      ScopedSpan span(&spans, "core.RunSimilarityJoin", "core");
      result = rankjoin::RunSimilarityJoin(ctx.get(), p.inputs->join_data(w),
                                           JoinConfig());
    }
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    if (traced && result.ok()) ExtractEngine(ctx->metrics());
    const double cpu2 = ProcessCpuSeconds();
    const Clock::time_point t2 = Clock::now();
    {
      ScopedSpan span(&spans, "minispark.Context::~Context", "minispark");
      ctx.reset();
    }
    const Clock::time_point t3 = Clock::now();
    const double cpu3 = ProcessCpuSeconds();
    spans.End(job_span);
    spans.set_job(-1);
    spans.set_enabled(was_enabled);

    OpResult r;
    r.wall_s = Seconds(t0, t1) + Seconds(t2, t3);
    r.cpu_s = (cpu1 - cpu0) + (cpu3 - cpu2);
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench: job failed: %s\n",
                   result.status().ToString().c_str());
      return r;
    }
    if (args.drop_pair && !result->pairs.empty()) result->pairs.pop_back();
    r.ok = DigestPairs(result->pairs) == ref.join;
    if (r.ok && traced) ExtractJoin(result->stats, r.wall_s);
    return r;
  }

  /// One range query of query `qi`; `stats`, when set, accumulates the
  /// index's candidate counters.
  OpResult Query(const Prepared& p, size_t qi, rankjoin::JoinStats* stats) {
    const rankjoin::Ranking& q = p.inputs->queries[qi];
    const Clock::time_point t0 = Clock::now();
    rankjoin::Result<std::vector<rankjoin::RankingId>> result =
        rankjoin::Status::Internal("not run");
    {
      ScopedSpan span(&spans, "search.PrefixRangeIndex::Query", "search");
      result = p.index->Query(q, w.theta, stats);
    }
    OpResult r;
    r.wall_s = Seconds(t0, Clock::now());
    if (!result.ok()) return r;
    if (args.drop_pair && !result->empty()) result->pop_back();
    r.ok = DigestIds(*result) == ref.queries[qi];
    return r;
  }

  void ExtractJoin(const rankjoin::JoinStats& s, double wall) {
    const double phases = s.ordering_seconds + s.clustering_seconds +
                          s.joining_seconds + s.expansion_seconds;
    samples.Add("join.ordering_s", s.ordering_seconds);
    samples.Add("join.clustering_s", s.clustering_seconds);
    samples.Add("join.joining_s", s.joining_seconds);
    samples.Add("join.expansion_s", s.expansion_seconds);
    samples.Add("join.unattributed_frac", 1.0 - phases / wall);
    const std::pair<const char*, uint64_t> counts[] = {
        {"join.candidates", s.candidates},
        {"join.position_filtered", s.position_filtered},
        {"join.triangle_filtered", s.triangle_filtered},
        {"join.verified", s.verified},
        {"join.verify_passed", s.verify_passed},
        {"join.emitted_unverified", s.emitted_unverified},
        {"join.result_pairs", s.result_pairs},
        {"join.clusters", s.clusters},
        {"join.singletons", s.singletons},
        {"join.lists_repartitioned", s.lists_repartitioned},
        {"join.chunk_pair_joins", s.chunk_pair_joins},
    };
    for (const auto& [name, value] : counts) {
      samples.Add(name, static_cast<double>(value));
    }
    samples.Add("join.verify_yield",
                Ratio(static_cast<double>(s.verify_passed),
                      static_cast<double>(s.verified)));
    samples.Add("join.dup_factor",
                Ratio(static_cast<double>(s.verify_passed + s.emitted_unverified),
                      static_cast<double>(s.result_pairs)));
    samples.Add("join.ns_per_verified",
                Ratio(1e9 * s.joining_seconds, static_cast<double>(s.verified)));
  }

  void ExtractEngine(const rankjoin::minispark::JobMetrics& m) {
    constexpr double kMb = 1.0 / (1 << 20);
    uint64_t tasks = 0;
    double write_s = 0;
    double read_s = 0;
    for (const rankjoin::minispark::StageMetrics& stage : m.stages()) {
      tasks += stage.task_seconds.size();
      if (EndsWith(stage.name, "shuffle-write")) {
        write_s += stage.TotalTaskSeconds();
      }
      if (EndsWith(stage.name, "shuffle-read")) {
        read_s += stage.TotalTaskSeconds();
      }
    }
    const rankjoin::minispark::Histogram queue = m.QueueWaitHistogram();
    const rankjoin::minispark::Histogram task = m.TaskDurationHistogram();
    samples.Add("minispark.stages", static_cast<double>(m.NumStages()));
    samples.Add("minispark.tasks", static_cast<double>(tasks));
    samples.Add("minispark.task_s", m.TotalTaskSeconds());
    samples.Add("minispark.queue_wait_us_p50", queue.Quantile(0.50));
    samples.Add("minispark.queue_wait_us_p99", queue.Quantile(0.99));
    samples.Add("minispark.task_us_p99", task.Quantile(0.99));
    samples.Add("minispark.shuffle_records",
                static_cast<double>(m.TotalShuffleRecords()));
    samples.Add("minispark.shuffle_mb",
                kMb * static_cast<double>(m.TotalShuffleBytes()));
    samples.Add("minispark.materialized_mb",
                kMb * static_cast<double>(m.TotalMaterializedBytes()));
    samples.Add("minispark.spilled_mb",
                kMb * static_cast<double>(m.TotalSpilledBytes()));
    samples.Add("minispark.spilled_runs",
                static_cast<double>(m.TotalSpilledRuns()));
    samples.Add("minispark.shuffle_write_task_s", write_s);
    samples.Add("minispark.shuffle_read_task_s", read_s);
    samples.Add("minispark.task_retries",
                static_cast<double>(m.TotalTaskRetries()));
    samples.Add("minispark.makespan24_s", m.SimulatedMakespan(24));
  }

  // -------------------------------------------------------------------
  // Kernel probe: the public ranking/ functions on the workload's own
  // data. Verification pairs are drawn at random over the whole ordered
  // dataset, so they are cache-cold like candidates inside the pipeline.
  void KernelProbe(const Prepared& p) {
    constexpr int kReps = 3;
    constexpr size_t kPairs = size_t{1} << 20;
    const rankjoin::FlatRankings& store = p.inputs->data.store();
    const size_t n = store.size();
    ScopedSpan probe(&spans, "ranking.probe", "ranking");
    rankjoin::ItemOrder order;
    std::vector<rankjoin::OrderedRanking> ordered;
    {
      ScopedSpan span(&spans, "ranking.MakeOrderedDataset", "ranking");
      order = rankjoin::ItemOrder::FromFrequencies(
          rankjoin::CountItemFrequencies(store));
      ordered = rankjoin::MakeOrderedDataset(store, order);
    }
    uint64_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(&spans, "ranking.MakeOrdered", "ranking");
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        sink += rankjoin::MakeOrdered(store.view(i), order).canonical[0].item;
      }
      samples.Add("ranking.canonicalize_ns",
                  1e9 * Seconds(t0, Clock::now()) / static_cast<double>(n));
    }
    rankjoin::Rng rng(args.seed ^ 0xC01Dull);
    std::vector<std::pair<uint32_t, uint32_t>> pairs(kPairs);
    for (auto& [a, b] : pairs) {
      a = static_cast<uint32_t>(rng.Uniform(n));
      b = static_cast<uint32_t>(rng.Uniform(n));
    }
    const uint32_t raw = rankjoin::RawThreshold(w.theta, store.k());
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(&spans, "ranking.FootruleDistanceBounded", "ranking");
      const Clock::time_point t0 = Clock::now();
      for (const auto& [a, b] : pairs) {
        if (auto d = rankjoin::FootruleDistanceBounded(ordered[a], ordered[b],
                                                       raw)) {
          sink += *d + 1;
        }
      }
      samples.Add("ranking.verify_ns", 1e9 * Seconds(t0, Clock::now()) /
                                           static_cast<double>(kPairs));
    }
    // Printing the sum keeps the timed loops from being optimized away.
    std::printf("# ranking probe checksum %" PRIu64 "\n", sink);
  }

  static double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

  static bool EndsWith(const std::string& s, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  }
};

// ---------------------------------------------------------------------
// Modes.

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr int kMinJobs = 3;
// Join workloads: queries issued after each job.
constexpr size_t kQueriesPerJob = 500;
// Query workloads: queries between two small joins of the query set.
constexpr size_t kQueriesPerSmallJob = 1000;
// Untimed queries after each job, before the timed ones.
constexpr size_t kWarmQueries = 50;

void PrintMetric(const MetricDef& def, double value, size_t samples) {
  std::printf("  %-32s %16.6f %-8s n=%-6zu %s\n", def.name, value, def.unit,
              samples, def.exact ? "exact" : "timing/scheduling");
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Measure(const Args& args, const WorkloadSpec& w) {
  Reference ref;
  if (!ReadReference(args.reference, &ref)) {
    std::fprintf(stderr, "perfbench: cannot read reference %s\n",
                 args.reference.c_str());
    return 1;
  }
  Bench b(w, args, ref);

  // Set-up, repeated; the median is setup_s. Each set-up ends with one
  // untimed warm-up job and query, so lazy work in a first op shows here.
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> p;
  for (int s = 0; s < kSetups; ++s) {
    p.reset();
    const int span = b.spans.Begin("setup", "perfbench");
    const Clock::time_point t0 = Clock::now();
    p = b.Setup();
    b.Count(b.Job(*p, /*traced=*/false));
    b.Count(b.Query(*p, 0, nullptr));
    setup_s.push_back(Seconds(t0, Clock::now()));
    b.spans.End(span);
    if (InputsFingerprint(*p->inputs) != ref.fingerprint) {
      std::fprintf(stderr, "perfbench: reference was computed on other data\n");
      return 1;
    }
  }

  std::vector<double> job_wall, job_cpu, traced_wall, untraced_wall, query_us;
  rankjoin::JoinStats search_stats;
  size_t search_queries = 0;
  auto timed_job = [&](int j) {
    // In the traced run, every other job is untraced: the pair gives
    // trace.overhead_frac.
    const bool traced = args.trace && j % 2 == 0;
    const OpResult r = b.Count(b.Job(*p, traced));
    if (!r.ok) return;
    job_wall.push_back(r.wall_s);
    job_cpu.push_back(r.cpu_s);
    (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
  };
  auto timed_query = [&](size_t i) {
    const size_t qi = i % p->inputs->queries.size();
    // Search counters and query spans come from the first full pass, so
    // the counters are exact and the trace stays small.
    const bool count = args.trace && i < p->inputs->queries.size();
    b.spans.set_enabled(count);
    const OpResult r = b.Count(b.Query(*p, qi, count ? &search_stats : nullptr));
    b.spans.set_enabled(args.trace);
    if (count) ++search_queries;
    if (r.ok) query_us.push_back(1e6 * r.wall_s);
  };
  // Checked but untimed queries that re-warm the caches a job evicted.
  auto warm_queries = [&](size_t from) {
    b.spans.set_enabled(false);
    for (size_t i = 0; i < kWarmQueries; ++i) {
      b.Count(b.Query(*p, (from + i) % p->inputs->queries.size(), nullptr));
    }
    b.spans.set_enabled(args.trace);
  };

  // The secondary operation is interleaved with the main one, so both
  // sample the whole run rather than one burst of it.
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return Seconds(start, Clock::now()); };
  const size_t num_queries = p->inputs->queries.size();
  int jobs = 0;
  size_t queries = 0;
  if (w.main_op == MainOp::kJoin) {
    while (jobs < kMinJobs || queries < num_queries ||
           elapsed() < args.seconds) {
      timed_job(jobs++);
      warm_queries(queries);
      for (size_t i = 0; i < kQueriesPerJob; ++i) timed_query(queries++);
    }
  } else {
    while (jobs < kMinJobs || queries < num_queries ||
           elapsed() < args.seconds) {
      timed_query(queries++);
      if (queries % kQueriesPerSmallJob == 0) {
        timed_job(jobs++);
        warm_queries(queries);
      }
    }
  }

  std::printf("# perfbench workload=%s seed=%" PRIu64 " trace=%d jobs=%zu "
              "queries=%zu attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              w.name, args.seed, args.trace ? 1 : 0, job_wall.size(),
              query_us.size(), b.attempted, b.failed);

  std::vector<std::pair<const MetricDef*, double>> out;
  if (!args.trace) {
    const double values[] = {
        Median(setup_s),
        Median(job_wall),
        Median(job_cpu),
        Percentile(query_us, 0.50),
        BlockP99(query_us),
        PeakRssMb(),
    };
    const size_t counts[] = {setup_s.size(), job_wall.size(),
                             job_cpu.size(), query_us.size(),
                             query_us.size() / kQueryBlock, 1};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
      PrintMetric(kEndToEnd[i], values[i], counts[i]);
    }
    // failed_frac is carried by the attempted/failed fields of the
    // result line; it is printed here so every end-to-end number shows.
    std::printf("  %-32s %16.6f %-8s n=%-6" PRIu64 " exact\n", "failed_frac",
                b.attempted ? static_cast<double>(b.failed) /
                                  static_cast<double>(b.attempted)
                            : 1.0,
                "fraction", b.attempted);
  } else {
    b.KernelProbe(*p);
    b.samples.Add("search.candidates_per_query",
                  Bench::Ratio(static_cast<double>(search_stats.candidates),
                               static_cast<double>(search_queries)));
    b.samples.Add("search.verified_per_query",
                  Bench::Ratio(static_cast<double>(search_stats.verified),
                               static_cast<double>(search_queries)));
    if (!traced_wall.empty() && !untraced_wall.empty()) {
      b.samples.Add("trace.overhead_frac",
                    Median(traced_wall) / Median(untraced_wall) - 1.0);
    }
    for (const MetricDef& def : kPerLayer) {
      const double value = b.samples.MedianOf(def.name);
      out.emplace_back(&def, value);
      PrintMetric(def, value, b.samples.CountOf(def.name));
      if (def.exact && !b.samples.Constant(def.name)) {
        std::printf("  warning: %s is not constant across jobs\n", def.name);
      }
    }
    if (!args.trace_out.empty()) {
      if (b.spans.WriteChromeTrace(args.trace_out)) {
        std::printf("# trace: %zu spans written to %s\n",
                    b.spans.spans().size(), args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }
  }

  std::string json = "{\"correct\": ";
  json += b.failed == 0 && b.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(b.attempted);
  json += ", \"failed\": " + std::to_string(b.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + std::string(out[i].first->name) + "\": {\"value\": " +
            JsonNumber(out[i].second) + ", \"unit\": \"" +
            out[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int MakeReferenceFile(const Args& args, const WorkloadSpec& w) {
  if (args.out.empty()) Usage("--mode reference needs --out");
  SpanRecorder spans(false);
  GenerateTimes times;
  const std::string rkjc = args.work_dir + "/reference.rkjc";
  std::unique_ptr<Inputs> inputs =
      MakeInputs(w, args.seed, rkjc, &spans, &times);
  const Clock::time_point t0 = Clock::now();
  const Reference ref =
      ComputeReference(w, *inputs, 4, args.work_dir + "/spill");
  inputs.reset();
  std::remove(rkjc.c_str());
  if (!WriteReference(args.out, ref)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "perfbench: reference %s seed=%" PRIu64 ": %" PRIu64
               " pairs, %zu queries (%.1f s)\n",
               w.name, args.seed, ref.join.count, ref.queries.size(),
               Seconds(t0, Clock::now()));
  return 0;
}

int PrintFingerprint(const Args& args, const WorkloadSpec& w) {
  SpanRecorder spans(false);
  GenerateTimes times;
  const std::string rkjc = args.work_dir + "/fingerprint.rkjc";
  std::unique_ptr<Inputs> inputs =
      MakeInputs(w, args.seed, rkjc, &spans, &times);
  std::printf("%016" PRIx64 " %zu\n", InputsFingerprint(*inputs),
              inputs->data.size());
  inputs.reset();
  std::remove(rkjc.c_str());
  return 0;
}

// Checks the reference's own all-pairs scan against the library's
// BruteForceJoin on one (workload, seed).
int CrossCheck(const Args& args, const WorkloadSpec& w) {
  SpanRecorder spans(false);
  GenerateTimes times;
  const std::string rkjc = args.work_dir + "/crosscheck.rkjc";
  std::unique_ptr<Inputs> inputs =
      MakeInputs(w, args.seed, rkjc, &spans, &times);
  const Reference ref =
      ComputeReference(w, *inputs, 4, args.work_dir + "/spill");
  const rankjoin::JoinResult brute =
      rankjoin::BruteForceJoin(inputs->join_data(w), w.theta);
  inputs.reset();
  std::remove(rkjc.c_str());
  const bool same = DigestPairs(brute.pairs) == ref.join;
  std::printf("crosscheck %s seed=%" PRIu64 ": reference %" PRIu64
              " pairs, BruteForceJoin %zu pairs, digests %s\n",
              w.name, args.seed, ref.join.count, brute.pairs.size(),
              same ? "equal" : "DIFFER");
  return same ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Usage(("--workload must be one of:" + names).c_str());
  }
  if (args.mode == "measure") return Measure(args, *w);
  if (args.mode == "reference") return MakeReferenceFile(args, *w);
  if (args.mode == "fingerprint") return PrintFingerprint(args, *w);
  if (args.mode == "crosscheck") return CrossCheck(args, *w);
  Usage("--mode must be measure, reference, fingerprint or crosscheck");
}

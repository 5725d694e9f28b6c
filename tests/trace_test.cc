// Tests for the observability layer (minispark/trace.h): per-operator
// counts inside fused chains, the filter-effectiveness counter
// registry, Chrome-trace export, and the metrics edge cases they rely
// on. The acceptance property lives here too: the CL pipeline's
// counters must be identical whether the shuffle stays resident or
// spills.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity_join.h"
#include "minispark/dataset.h"
#include "minispark/trace.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using minispark::Context;
using minispark::CounterRegistry;
using minispark::OpCounts;
using minispark::OpMetrics;
using minispark::OpTag;
using minispark::ParseTraceLevel;
using minispark::StageMetrics;
using minispark::TaskTrace;
using minispark::TraceLevel;
using testutil::PairSet;
using testutil::ScopedEnv;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;

TEST(TraceLevelTest, Parsing) {
  EXPECT_EQ(ParseTraceLevel("off"), TraceLevel::kOff);
  EXPECT_EQ(ParseTraceLevel("0"), TraceLevel::kOff);
  EXPECT_EQ(ParseTraceLevel("counters"), TraceLevel::kCounters);
  EXPECT_EQ(ParseTraceLevel("1"), TraceLevel::kCounters);
  EXPECT_EQ(ParseTraceLevel("timers"), TraceLevel::kTimers);
  EXPECT_EQ(ParseTraceLevel("2"), TraceLevel::kTimers);
  EXPECT_EQ(ParseTraceLevel("Timers"), TraceLevel::kTimers);
  EXPECT_FALSE(ParseTraceLevel("").has_value());
  EXPECT_FALSE(ParseTraceLevel("bogus").has_value());
  EXPECT_FALSE(ParseTraceLevel("countrs").has_value());
}

TEST(TraceLevelTest, EnvOverridesContextOptions) {
  Context::Options options = TestCluster();
  options.trace_level = TraceLevel::kOff;
  {
    ScopedEnv env("RANKJOIN_TRACE_LEVEL", "timers");
    Context ctx(options);
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kTimers);
    EXPECT_TRUE(ctx.trace_enabled());
  }
  {
    ScopedEnv env("RANKJOIN_TRACE_LEVEL", nullptr);
    options.trace_level = TraceLevel::kCounters;
    Context ctx(options);
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kCounters);
  }
  {
    // An unknown spelling keeps the programmatic level.
    ScopedEnv env("RANKJOIN_TRACE_LEVEL", "bogus");
    Context ctx(options);
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kCounters);
  }
}

// --- Metrics edge cases ----------------------------------------------

TEST(MetricsEdgeCaseTest, MakespanClampsNonPositiveWorkers) {
  StageMetrics stage;
  stage.task_seconds = {1.0, 2.0, 3.0};
  // Zero or negative workers behave like one worker: serial execution.
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(0), 6.0);
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(-5), 6.0);
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(1), 6.0);
}

TEST(MetricsEdgeCaseTest, MakespanOfEmptyStageIsZero) {
  StageMetrics stage;
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(4), 0.0);
  EXPECT_DOUBLE_EQ(stage.TotalTaskSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(stage.MaxTaskSeconds(), 0.0);
}

TEST(MetricsEdgeCaseTest, MakespanGreedyAssignment) {
  StageMetrics stage;
  stage.task_seconds = {3.0, 1.0, 1.0, 1.0};
  // LPT: worker A gets the 3s task, worker B the three 1s tasks.
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(2), 3.0);
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(4), 3.0);
}

TEST(MetricsEdgeCaseTest, EmptyJobMetrics) {
  minispark::JobMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.TotalTaskSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.SimulatedMakespan(8), 0.0);
  EXPECT_EQ(metrics.NumStages(), 0u);
}

// --- TaskTrace -------------------------------------------------------

/// Regression test: fused generators hoist their OpCounts pointer once
/// per partition while ops later in the chain keep registering new
/// slots. The returned pointers must survive that growth.
TEST(TaskTraceTest, SlotPointersStableUnderGrowth) {
  TaskTrace trace;
  std::vector<OpTag> tags(64);
  for (size_t i = 0; i < tags.size(); ++i) tags[i].id = i + 1;

  OpCounts* first = trace.Slot(&tags[0]);
  first->records_in = 7;
  for (size_t i = 1; i < tags.size(); ++i) trace.Slot(&tags[i]);

  EXPECT_EQ(trace.Slot(&tags[0]), first);
  EXPECT_EQ(first->records_in, 7u);
  EXPECT_EQ(trace.slots().size(), tags.size());
}

// --- CounterRegistry -------------------------------------------------

TEST(CounterRegistryTest, DisabledRegistryIgnoresWrites) {
  CounterRegistry registry(/*enabled=*/false);
  registry.Add("x", 5);
  EXPECT_EQ(registry.Value("x"), 0u);
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(CounterRegistryTest, AddCreateAndSnapshotSorted) {
  CounterRegistry registry(/*enabled=*/true);
  registry.Add("zeta", 2);
  registry.Add("alpha", 0);  // Add(0) still creates the counter.
  registry.Add("zeta", 3);
  EXPECT_EQ(registry.Value("zeta"), 5u);
  EXPECT_EQ(registry.Value("alpha"), 0u);
  EXPECT_EQ(registry.Value("never-written"), 0u);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "alpha");
  EXPECT_EQ(snapshot[1].first, "zeta");
  EXPECT_EQ(snapshot[1].second, 5u);

  registry.Clear();
  EXPECT_TRUE(registry.Snapshot().empty());
}

// Regression test for a use-after-free the thread-safety migration
// uncovered: Add() deliberately escapes the counter pointer out of the
// map lock (the fetch_add must not serialize on the mutex), and Clear()
// used to destroy the owning unique_ptr — a concurrent Add() could then
// increment freed memory. Clear() now parks cleared atomics in a
// graveyard (retired_) until registry destruction. Plain builds
// exercise the path; the CI tsan job is what actually pins the fix —
// under -fsanitize=thread the old Clear() fails this test with a
// heap-use-after-free report.
TEST(CounterRegistryTest, ConcurrentAddAndClearDoNotRace) {
  CounterRegistry registry(/*enabled=*/true);
  constexpr int kWriters = 4;
  constexpr int kAddsPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      const std::string name = "race/counter" + std::to_string(w % 2);
      for (int i = 0; i < kAddsPerWriter; ++i) registry.Add(name, 1);
    });
  }
  std::thread clearer([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.Clear();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  // Totals are unspecified (clears race the adds); the invariant under
  // test is memory safety, plus the registry still works afterwards.
  registry.Clear();
  registry.Add("race/after", 7);
  EXPECT_EQ(registry.Value("race/after"), 7u);
}

// --- Per-operator counts in fused chains -----------------------------

/// The canonical narrow chain over deterministic data.
minispark::Dataset<std::pair<uint32_t, std::vector<uint32_t>>> BuildChain(
    Context* ctx) {
  std::vector<std::pair<uint32_t, uint32_t>> data;
  for (uint32_t i = 0; i < 1000; ++i) data.push_back({i % 64, i});
  auto ds = minispark::Parallelize(ctx, data, 4);
  auto chain =
      ds.Map(
            [](const std::pair<uint32_t, uint32_t>& kv) {
              return std::pair<uint32_t, uint32_t>(kv.first, kv.second + 1);
            },
            "chain/shift")
          .Filter(
              [](const std::pair<uint32_t, uint32_t>& kv) {
                return kv.second % 2 == 0;
              },
              "chain/evens")
          .FlatMap(
              [](const std::pair<uint32_t, uint32_t>& kv) {
                return std::vector<std::pair<uint32_t, uint32_t>>{
                    kv, {kv.first + 1, kv.second}};
              },
              "chain/mirror");
  return minispark::GroupByKey(chain, 8, "chain/group");
}

/// Collects every OpMetrics of the job keyed by the op's stage label.
std::map<std::string, OpMetrics> OpMetricsByName(const Context& ctx) {
  std::map<std::string, OpMetrics> by_name;
  for (const auto& stage : ctx.metrics().stages()) {
    for (const OpMetrics& m : stage.op_metrics) {
      OpMetrics& agg = by_name[m.name];
      agg.op = m.op;
      agg.name = m.name;
      agg.records_in += m.records_in;
      agg.records_out += m.records_out;
      agg.seconds += m.seconds;
    }
  }
  return by_name;
}

/// Per-operator counts observed inside one fused stage follow the
/// records through every op of the chain.
TEST(OpMetricsTest, FusedChainCountsEveryOp) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  Context ctx(TestCluster());
  BuildChain(&ctx).Count();
  const auto ops = OpMetricsByName(ctx);
  // 1000 in, half pass the filter, the flatMap doubles them back to 1000.
  EXPECT_EQ(ops.at("chain/shift").records_in, 1000u);
  EXPECT_EQ(ops.at("chain/shift").records_out, 1000u);
  EXPECT_EQ(ops.at("chain/evens").records_in, 1000u);
  EXPECT_EQ(ops.at("chain/evens").records_out, 500u);
  EXPECT_EQ(ops.at("chain/mirror").records_in, 500u);
  EXPECT_EQ(ops.at("chain/mirror").records_out, 1000u);
}

TEST(OpMetricsTest, OffLevelRecordsNoOpMetrics) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "off");
  Context ctx(TestCluster());
  BuildChain(&ctx).Count();
  for (const auto& stage : ctx.metrics().stages()) {
    EXPECT_TRUE(stage.op_metrics.empty()) << stage.name;
  }
  EXPECT_EQ(ctx.tracer().NumSpans(), 0u);
  EXPECT_TRUE(ctx.counters().Snapshot().empty());
}

TEST(OpMetricsTest, TimersPopulateInclusiveSeconds) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "timers");
  Context ctx(TestCluster());
  BuildChain(&ctx).Count();
  const auto ops = OpMetricsByName(ctx);
  ASSERT_FALSE(ops.empty());
  for (const auto& [name, m] : ops) {
    EXPECT_GE(m.seconds, 0.0) << name;
  }
  // ToString surfaces the per-op breakdown with timings.
  const std::string text = ctx.metrics().ToString();
  EXPECT_NE(text.find("op map[chain/shift]"), std::string::npos);
  EXPECT_NE(text.find("incl_s="), std::string::npos);
}

TEST(OpMetricsTest, ExplainDotAnnotatesObservedCounts) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  Context ctx(TestCluster());
  auto grouped = BuildChain(&ctx);
  grouped.Count();
  const std::string dot = grouped.ExplainDot();
  EXPECT_NE(dot.find("in=1000"), std::string::npos);
  EXPECT_NE(dot.find("out=500"), std::string::npos);
}

TEST(OpMetricsTest, ExplainDotFallsBackToStaticRenderingWhenOff) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "off");
  Context ctx(TestCluster());
  auto grouped = BuildChain(&ctx);
  grouped.Count();
  const std::string dot = grouped.ExplainDot();
  EXPECT_NE(dot.find("chain/mirror"), std::string::npos);
  EXPECT_EQ(dot.find("in="), std::string::npos);
}

// --- Acceptance: CL counters across engine configurations ------------

SimilarityJoinConfig ClpConfig() {
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = 0.25;
  config.theta_c = 0.05;
  config.delta = 8;
  return config;
}

std::vector<std::pair<std::string, uint64_t>> RunClpAndSnapshot(
    Context::Options options, std::set<ResultPair>* pairs) {
  Context ctx(options);
  auto result = RunSimilarityJoin(&ctx, SmallSkewedDataset(/*seed=*/7,
                                                           /*n=*/250),
                                  ClpConfig());
  EXPECT_TRUE(result.ok()) << result.status().message();
  if (result.ok()) *pairs = PairSet(result->pairs);
  return ctx.counters().Snapshot();
}

/// The acceptance criterion of the observability layer: the CL
/// pipeline's filter-effectiveness counters (clusters, candidates,
/// prunes, verifications, result pairs) are a property of the
/// algorithm, not of the engine configuration — resident vs spilled
/// shuffles must publish identical snapshots.
TEST(ClCountersTest, ConsistentAcrossSpill) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  // The spill budget env var (set by the CI spill job) would collapse
  // the resident/spill contrast — pin it off for this test.
  ScopedEnv budget_env("RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr);
  // Fault injection (set by the CI chaos job) would add fault.* counts
  // to the spill contexts only — pin it off for the snapshot compare.
  ScopedEnv fault_env("RANKJOIN_FAULT_SPEC", nullptr);

  Context::Options resident = TestCluster();
  Context::Options spilled = TestCluster();
  spilled.shuffle_memory_budget_bytes = 1;  // spill every shuffle

  std::set<ResultPair> resident_pairs, spilled_pairs;
  const auto resident_counters =
      RunClpAndSnapshot(resident, &resident_pairs);
  const auto spilled_counters = RunClpAndSnapshot(spilled, &spilled_pairs);

  ASSERT_FALSE(resident_counters.empty());
  EXPECT_EQ(resident_pairs, spilled_pairs);
  EXPECT_EQ(resident_counters, spilled_counters);

  // The paper-meaningful counters exist and are plausible.
  std::map<std::string, uint64_t> by_name(resident_counters.begin(),
                                          resident_counters.end());
  EXPECT_GT(by_name.at("cl.centroidJoin.candidates"), 0u);
  EXPECT_GT(by_name.at("cl.clustering.clusters"), 0u);
  EXPECT_GT(by_name.at("cl.result_pairs"), 0u);
  ASSERT_TRUE(by_name.count("cl.expansion.triangle_filtered"));
  ASSERT_TRUE(by_name.count("repartition.lists_split"));
}

/// The snapshot without the fault.* and obs.* counters, the prefixes
/// scripts/check_bench_regression.py also treats as volatile: under
/// fault injection, how many spill runs are written before an injected
/// ENOSPC degrades the spill path depends on timing.
std::vector<std::pair<std::string, uint64_t>> WithoutVolatile(
    std::vector<std::pair<std::string, uint64_t>> snapshot) {
  auto is_volatile = [](const std::pair<std::string, uint64_t>& counter) {
    const std::string& name = counter.first;
    return name.rfind("fault.", 0) == 0 || name.rfind("obs.", 0) == 0;
  };
  snapshot.erase(
      std::remove_if(snapshot.begin(), snapshot.end(), is_volatile),
      snapshot.end());
  return snapshot;
}

/// Repeated runs on the same input publish identical snapshots — the
/// per-partition-slot-then-merge accumulation is deterministic even
/// though tasks run on a thread pool.
TEST(ClCountersTest, MergeIsDeterministicUnderThreadPool) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  std::set<ResultPair> first_pairs, second_pairs;
  const auto first = RunClpAndSnapshot(TestCluster(), &first_pairs);
  const auto second = RunClpAndSnapshot(TestCluster(), &second_pairs);
  EXPECT_EQ(WithoutVolatile(first), WithoutVolatile(second));
  EXPECT_EQ(first_pairs, second_pairs);
}

// --- Chrome trace export ---------------------------------------------

/// Minimal recursive-descent JSON validator — enough to catch broken
/// escaping or unbalanced structure in the trace export without a JSON
/// library dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_])) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) ==
                   std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonValidator(R"({"a":[1,2.5,-3],"b":"x\"y","c":null})")
                  .Valid());
  EXPECT_FALSE(JsonValidator(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\":\"\n\"}").Valid());  // raw newline
  EXPECT_FALSE(JsonValidator(R"(["trailing",])").Valid());
}

TEST(ChromeTraceTest, ExportIsWellFormedAndHasSpans) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  Context ctx(TestCluster());
  BuildChain(&ctx).Count();
  ASSERT_GT(ctx.tracer().NumSpans(), 0u);

  const std::string path =
      ::testing::TempDir() + "/rankjoin_trace_test.json";
  ASSERT_TRUE(ctx.DumpTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("chain/group/shuffle-write"), std::string::npos);
  // The counter snapshot rides along under otherData.
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
}

TEST(ChromeTraceTest, SpillAndShuffleReadSpansRecorded) {
  ScopedEnv env("RANKJOIN_TRACE_LEVEL", "counters");
  ScopedEnv budget_env("RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr);
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;  // force the spill path
  Context ctx(options);
  BuildChain(&ctx).Count();

  const std::string path =
      ::testing::TempDir() + "/rankjoin_trace_spill_test.json";
  ASSERT_TRUE(ctx.DumpTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"spill\""), std::string::npos);
  EXPECT_NE(json.find("\"shuffle-read\""), std::string::npos);
}

TEST(ChromeTraceTest, DumpTraceReportsIoErrors) {
  Context ctx(TestCluster());
  const Status status =
      ctx.DumpTrace("/nonexistent-dir-for-sure/trace.json");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace rankjoin

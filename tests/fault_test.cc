#include "minispark/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "join/cluster_join.h"
#include "join/rs_join.h"
#include "join/vj.h"
#include "join/vj_nl.h"
#include "join/vsmart.h"
#include "minispark/context.h"
#include "minispark/dataset.h"
#include "minispark/shuffle.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::PairSet;
using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::SmallSkewedDataset;
using rankjoin::testutil::TestCluster;

/// Pins the fault-relevant environment for one test.
struct PinnedEnv {
  ScopedEnv fault{"RANKJOIN_FAULT_SPEC", nullptr};
  ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr};
  ScopedEnv trace{"RANKJOIN_TRACE_LEVEL", nullptr};
  ScopedEnv lint{"RANKJOIN_LINT_LEVEL", nullptr};
};

// ---------------------------------------------------------------------
// Fault spec parsing
// ---------------------------------------------------------------------

TEST(FaultSpecTest, EmptyIsAllOff) {
  Result<FaultSpec> spec = ParseFaultSpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->Any());
  EXPECT_EQ(spec->seed, 42u);
}

TEST(FaultSpecTest, FullGrammar) {
  Result<FaultSpec> spec = ParseFaultSpec(
      "task_throw:p=0.05;spill_corrupt:p=0.1;spill_enospc:p=0.2;"
      "checkpoint_corrupt:p=0.3;proc_kill_after:n=9;seed=7");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->task_throw_p, 0.05);
  EXPECT_DOUBLE_EQ(spec->spill_corrupt_p, 0.1);
  EXPECT_DOUBLE_EQ(spec->spill_enospc_p, 0.2);
  EXPECT_DOUBLE_EQ(spec->checkpoint_corrupt_p, 0.3);
  EXPECT_EQ(spec->proc_kill_after, 9);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_TRUE(spec->Any());
  // task_delay is not a fault site: it is refused like any unknown one.
  EXPECT_FALSE(ParseFaultSpec("task_delay:p=0.02,ms=200").ok());
}

TEST(FaultSpecTest, Errors) {
  EXPECT_FALSE(ParseFaultSpec("task_throw:p=1.5").ok());   // p out of range
  EXPECT_FALSE(ParseFaultSpec("task_throw:p=nope").ok());  // bad number
  EXPECT_FALSE(ParseFaultSpec("gremlins:p=0.5").ok());     // unknown fault
  EXPECT_FALSE(ParseFaultSpec("task_throw:q=0.5").ok());   // unknown key
  EXPECT_FALSE(ParseFaultSpec("seed=abc").ok());           // bad seed
}

// ---------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultSpec spec;
  spec.task_throw_p = 0.5;
  spec.spill_corrupt_p = 0.5;
  spec.seed = 123;
  FaultInjector a(spec, nullptr);
  FaultInjector b(spec, nullptr);
  int fired = 0;
  for (int task = 0; task < 50; ++task) {
    for (uint64_t attempt = 0; attempt < 4; ++attempt) {
      const bool fa = a.TaskThrow("stage", task, attempt);
      EXPECT_EQ(fa, b.TaskThrow("stage", task, attempt));
      fired += fa ? 1 : 0;
      EXPECT_EQ(a.SpillCorrupt(1, task, attempt, 3),
                b.SpillCorrupt(1, task, attempt, 3));
    }
  }
  // p=0.5 over 200 draws: far from degenerate on both sides.
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
}

TEST(FaultInjectorTest, ScheduleDependsOnEveryCoordinate) {
  FaultSpec spec;
  spec.task_throw_p = 0.5;
  spec.seed = 123;
  FaultInjector a(spec, nullptr);
  FaultSpec other = spec;
  other.seed = 124;
  FaultInjector b(other, nullptr);
  int seed_diff = 0;
  int stage_diff = 0;
  int attempt_diff = 0;
  for (int task = 0; task < 100; ++task) {
    seed_diff += a.TaskThrow("s", task, 0) != b.TaskThrow("s", task, 0);
    stage_diff += a.TaskThrow("s", task, 0) != a.TaskThrow("t", task, 0);
    attempt_diff += a.TaskThrow("s", task, 0) != a.TaskThrow("s", task, 1);
  }
  EXPECT_GT(seed_diff, 0);
  EXPECT_GT(stage_diff, 0);
  EXPECT_GT(attempt_diff, 0);
}

TEST(FaultInjectorTest, ProbabilityEndpoints) {
  FaultSpec always;
  always.task_throw_p = 1.0;
  FaultInjector on(always, nullptr);
  FaultInjector off;  // default: disabled
  EXPECT_FALSE(off.enabled());
  for (int task = 0; task < 20; ++task) {
    EXPECT_TRUE(on.TaskThrow("s", task, 0));
    EXPECT_FALSE(off.TaskThrow("s", task, 0));
  }
}

TEST(Crc32Test, DetectsSingleByteFlip) {
  std::string payload = "the quick brown fox jumps over the lazy dog";
  const uint32_t crc = Crc32(payload.data(), payload.size());
  EXPECT_EQ(crc, Crc32(payload.data(), payload.size()));
  payload[payload.size() / 2] ^= 0x5A;
  EXPECT_NE(crc, Crc32(payload.data(), payload.size()));
}

// ---------------------------------------------------------------------
// Stage execution: empty stages, retries, failure surfacing
// ---------------------------------------------------------------------

TEST(RetryTest, EmptyAndNegativeStagesRunNoTasks) {
  PinnedEnv env;
  Context ctx(TestCluster());
  std::atomic<int> ran{0};
  StageMetrics zero = ctx.RunStage("empty", 0, [&](int) { ran.fetch_add(1); });
  StageMetrics neg = ctx.RunStage("neg", -3, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(zero.status.ok());
  EXPECT_TRUE(neg.status.ok());
  EXPECT_TRUE(zero.task_seconds.empty());
  EXPECT_TRUE(neg.task_seconds.empty());
  EXPECT_EQ(zero.task_retries, 0u);
}

TEST(RetryTest, TransientThrowRetriesUntilSuccess) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.trace_level = TraceLevel::kCounters;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  std::array<std::atomic<int>, 4> attempts{};
  StageMetrics stage = ctx.RunStage("flaky", 4, [&](int i) {
    if (attempts[static_cast<size_t>(i)].fetch_add(1) == 0) {
      throw std::runtime_error("transient glitch");
    }
  });
  EXPECT_TRUE(stage.status.ok());
  EXPECT_EQ(stage.task_retries, 4u);
  for (const auto& a : attempts) EXPECT_EQ(a.load(), 2);
  // Each re-run attempt leaves a "task-retry" span; the recoveries are
  // also tallied in the fault.* counter scope.
  const std::string json = ctx.tracer().ToChromeTraceJson({});
  EXPECT_NE(json.find("\"task-retry\""), std::string::npos);
  EXPECT_EQ(ctx.counters().Value("fault.task.retried"), 4u);
  EXPECT_EQ(ctx.counters().Value("fault.task.recovered"), 4u);
}

TEST(RetryTest, ExhaustedRetriesSurfaceFirstErrorWithoutAborting) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.max_task_retries = 2;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  std::atomic<int> calls{0};
  StageMetrics stage = ctx.RunStage("doomed", 3, [&](int) {
    calls.fetch_add(1);
    throw std::runtime_error("boom");
  });
  EXPECT_FALSE(stage.status.ok());
  EXPECT_EQ(stage.status.code(), StatusCode::kInternal);
  EXPECT_NE(stage.status.message().find("boom"), std::string::npos);
  // The first failing task ran 1 + max_task_retries times; once the
  // stage is cancelled, tasks that have not started yet are skipped, so
  // the total attempt count is bounded by tasks * (retries + 1).
  EXPECT_GE(calls.load(), 3);
  EXPECT_LE(calls.load(), 9);
}

TEST(RetryTest, NonRetryableErrorFailsImmediately) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.max_task_retries = 5;
  Context ctx(options);
  std::atomic<int> calls{0};
  StageMetrics stage = ctx.RunStage("fatal", 1, [&](int) {
    calls.fetch_add(1);
    throw NonRetryableError(Status::IoError("spill gone"));
  });
  EXPECT_FALSE(stage.status.ok());
  EXPECT_EQ(stage.status.code(), StatusCode::kIoError);
  EXPECT_EQ(calls.load(), 1);  // no retry
  EXPECT_EQ(stage.task_retries, 0u);
}

TEST(RetryTest, ThrowingLambdaPoisonsDatasetAndPropagates) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.max_task_retries = 1;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  std::vector<int> data(100);
  for (int i = 0; i < 100; ++i) data[static_cast<size_t>(i)] = i;
  Dataset<int> ds = Parallelize(&ctx, data, 4).Map([](int x) {
    if (x == 37) throw std::runtime_error("poison pill");
    return x * 2;
  });
  Result<std::vector<int>> direct = ds.TryCollect();
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("poison pill"), std::string::npos);
  EXPECT_FALSE(ds.status().ok());
  // Downstream wide operations propagate the poison without running
  // stages or aborting.
  Dataset<std::pair<int, int>> keyed =
      ds.Map([](int x) { return std::make_pair(x % 5, x); });
  Result<std::vector<std::pair<int, int>>> shuffled =
      PartitionByKey(keyed, 4).TryCollect();
  ASSERT_FALSE(shuffled.ok());
  EXPECT_NE(shuffled.status().message().find("poison pill"),
            std::string::npos);
}

TEST(RetryTest, MidChainThrowRetriesWithoutDuplicates) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.retry_backoff_ms = 0;
  Context ctx(options);
  std::vector<int> data(400);
  for (int i = 0; i < 400; ++i) data[static_cast<size_t>(i)] = i;
  // Element 150 sits halfway into partition 1: its task has already
  // emitted 50 elements when the first attempt throws, and the retry
  // must not keep them.
  std::atomic<bool> thrown{false};
  Dataset<int> ds = Parallelize(&ctx, data, 4).Map([&thrown](int x) {
    if (x == 150 && !thrown.exchange(true)) {
      throw std::runtime_error("transient mid-chain glitch");
    }
    return x;
  });
  Result<std::vector<int>> collected = ds.TryCollect();
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(*collected, data);
  EXPECT_EQ(ctx.metrics().TotalTaskRetries(), 1u);
}

TEST(RetryTest, InjectedFaultsRecoverWithIdenticalResults) {
  PinnedEnv env;
  const std::vector<int> data = [] {
    std::vector<int> d;
    for (int i = 0; i < 500; ++i) d.push_back(i);
    return d;
  }();
  const auto run = [&data](const std::string& fault_spec,
                           uint64_t* retries, uint64_t* injected) {
    Context::Options options = TestCluster();
    options.trace_level = TraceLevel::kCounters;
    options.retry_backoff_ms = 0;
    options.fault_spec = fault_spec;
    Context ctx(options);
    auto pairs = Parallelize(&ctx, data, 8).Map([](int x) {
      return std::make_pair(x % 13, x);
    });
    std::vector<std::pair<int, int>> out =
        *ReduceByKey(pairs, [](int a, int b) { return a + b; }).TryCollect();
    std::sort(out.begin(), out.end());
    if (retries != nullptr) *retries = ctx.metrics().TotalTaskRetries();
    if (injected != nullptr) {
      *injected = ctx.counters().Value("fault.task_throw.injected");
    }
    return out;
  };
  const auto clean = run("", nullptr, nullptr);
  uint64_t retries = 0;
  uint64_t injected = 0;
  const auto faulty = run("task_throw:p=0.2;seed=9", &retries, &injected);
  EXPECT_EQ(clean, faulty);
  EXPECT_GT(injected, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(RetryTest, InjectionExhaustionSurfacesInjectedFault) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.fault_spec = "task_throw:p=1";  // every attempt fails
  options.max_task_retries = 2;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  Result<std::vector<int>> result =
      Parallelize(&ctx, std::vector<int>{1, 2, 3}, 2).Map([](int x) {
        return x;
      }).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------
// Spill integrity and lineage recovery
// ---------------------------------------------------------------------

using IntPair = std::pair<int, int>;

/// A shuffle record whose decode fails once, for the value set in
/// throw_at_value (-1 = never), while its spilled run is emitted.
struct FlakyRecord {
  int key = 0;
  int value = 0;
  std::string pad;  // not trivially copyable: Serde below is the only one

  static inline std::atomic<int> throw_at_value{-1};
};

}  // namespace

template <>
struct Serde<FlakyRecord> {
  static size_t Size(const FlakyRecord& /*r*/) { return 2 * sizeof(int); }
  static void Write(const FlakyRecord& r, std::string* out) {
    Serde<int>::Write(r.key, out);
    Serde<int>::Write(r.value, out);
  }
  static void Read(const char** p, const char* end, FlakyRecord* r) {
    Serde<int>::Read(p, end, &r->key);
    Serde<int>::Read(p, end, &r->value);
    int armed = r->value;
    if (FlakyRecord::throw_at_value.compare_exchange_strong(armed, -1)) {
      throw std::runtime_error("decode failed once");
    }
  }
};

namespace {

std::shared_ptr<ShuffleService<IntPair>> WriteTestShuffle(Context* ctx,
                                                          int buckets) {
  std::vector<IntPair> data;
  for (int i = 0; i < 400; ++i) data.push_back({i % buckets, i});
  Dataset<IntPair> ds = Parallelize(ctx, std::move(data), 4);
  return internal::ShuffleWrite<IntPair>(
      ds, buckets, "t",
      [buckets](const IntPair& kv) { return kv.first % buckets; });
}

std::multiset<IntPair> ReadAll(Context* ctx,
                               ShuffleService<IntPair>* service,
                               Status* status) {
  auto parts = internal::ShuffleRead(ctx, service, "t", status);
  std::multiset<IntPair> out;
  for (const auto& p : *parts) out.insert(p.begin(), p.end());
  return out;
}

TEST(SpillRecoveryTest, DeletedSpillFilesRegenerateFromLineage) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;  // spill everything
  options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  const int buckets = 8;
  auto expected_service = WriteTestShuffle(&ctx, buckets);
  Status clean_status;
  const auto expected =
      ReadAll(&ctx, expected_service.get(), &clean_status);
  ASSERT_TRUE(clean_status.ok());
  ASSERT_EQ(expected.size(), 400u);

  auto service = WriteTestShuffle(&ctx, buckets);
  ASSERT_FALSE(service->spill_paths().empty());
  for (const std::string& path : service->spill_paths()) {
    std::filesystem::remove(path);
  }
  Status status;
  const auto recovered = ReadAll(&ctx, service.get(), &status);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(recovered, expected);
  EXPECT_GT(service->recovered_runs(), 0u);
  EXPECT_GT(ctx.counters().Value("fault.spill.recovered"), 0u);
}

TEST(SpillRecoveryTest, ExternallyCorruptedRunFailsCrcAndRegenerates) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;
  options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  const int buckets = 8;
  auto service = WriteTestShuffle(&ctx, buckets);
  std::vector<std::string> paths = service->spill_paths();
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(0);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(0);
    file.write(&byte, 1);
  }
  Status status;
  const auto recovered = ReadAll(&ctx, service.get(), &status);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(recovered.size(), 400u);
  EXPECT_GT(service->recovered_runs(), 0u);
  const std::string json = ctx.tracer().ToChromeTraceJson({});
  EXPECT_NE(json.find("\"spill-recovery\""), std::string::npos);
}

TEST(SpillRecoveryTest, InjectedCorruptionKeepsPipelineByteIdentical) {
  PinnedEnv env;
  const auto run = [](const std::string& fault_spec, uint64_t* recovered) {
    Context::Options options = TestCluster();
    options.shuffle_memory_budget_bytes = 1;
    options.trace_level = TraceLevel::kCounters;
    options.fault_spec = fault_spec;
    Context ctx(options);
    std::vector<IntPair> data;
    for (int i = 0; i < 600; ++i) data.push_back({i % 23, i});
    auto grouped =
        GroupByKey(Parallelize(&ctx, std::move(data), 8), 8);
    std::vector<std::pair<int, std::vector<int>>> out =
        *grouped.TryCollect();
    std::sort(out.begin(), out.end());
    if (recovered != nullptr) {
      *recovered = ctx.metrics().TotalRecoveredSpillRuns();
    }
    return out;
  };
  const auto clean = run("", nullptr);
  uint64_t recovered = 0;
  const auto faulty = run("spill_corrupt:p=0.5;seed=3", &recovered);
  EXPECT_EQ(clean, faulty);
  EXPECT_GT(recovered, 0u);
}

TEST(SpillRecoveryTest, NoRecoveryRegisteredIsNonRetryable) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;
  Context ctx(options);
  ShuffleService<IntPair> service(&ctx, 1, 2);
  for (int i = 0; i < 50; ++i) service.Add(0, i % 2, {i, i});
  service.FinishWrite();
  for (const std::string& path : service.spill_paths()) {
    std::filesystem::remove(path);
  }
  EXPECT_THROW(service.ReadBucket(0, [](IntPair&&) {}), NonRetryableError);
}

TEST(SpillRecoveryTest, MidConsumptionReadFailureIsNotRetried) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;  // spill everything
  options.max_task_retries = 3;
  options.retry_backoff_ms = 0;
  options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  std::vector<FlakyRecord> data;
  for (int i = 0; i < 400; ++i) data.push_back({i % 4, i, ""});
  Dataset<FlakyRecord> ds = Parallelize(&ctx, std::move(data), 4);
  auto service = internal::ShuffleWrite<FlakyRecord>(
      ds, 4, "t", [](const FlakyRecord& r) { return r.key; });
  ASSERT_FALSE(service->spill_paths().empty());
  // Record 42 is the 11th of bucket 2 of map task 0: its read task has
  // already emitted ten records when the decode fails. Once a read task
  // has consumed shuffle data, resident buckets may have been moved out
  // and a retry would re-emit moved-from residue, so the failure must
  // be permanent.
  FlakyRecord::throw_at_value = 42;
  Status status;
  internal::ShuffleRead(&ctx, service.get(), "t", &status);
  EXPECT_EQ(FlakyRecord::throw_at_value, -1);  // it did throw
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not retryable"), std::string::npos);
  EXPECT_EQ(ctx.counters().Value("fault.task.retried"), 0u);
}

TEST(SpillRecoveryTest, BucketLargerThanReadBufferCapRoundTrips) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;  // spill everything
  Context ctx(options);
  ShuffleService<std::string> service(&ctx, 1, 4);
  // ~2 MiB of spilled payload in ONE bucket — beyond the
  // validation-pass buffering cap, so the emit pass must re-read (and
  // re-verify) the overflow segments instead of holding the whole
  // bucket in memory. Every fourth record goes to bucket 3.
  const std::string chunk(4096, 'x');
  constexpr int kRecords = 640;
  for (int i = 0; i < kRecords; ++i) {
    service.Add(0, i % 4 == 0 ? 3 : 2, chunk + std::to_string(i));
  }
  service.FinishWrite();
  ASSERT_GT(service.bucket_bytes()[2], uint64_t{1} << 20);
  std::vector<std::string> got;
  service.ReadBucket(2, [&](std::string&& s) { got.push_back(std::move(s)); });
  std::vector<std::string> expect;
  for (int i = 0; i < kRecords; ++i) {
    if (i % 4 != 0) expect.push_back(chunk + std::to_string(i));
  }
  // Arrival order, across the re-read segments too.
  EXPECT_EQ(got, expect);
}

TEST(SpillRecoveryTest, UnwritableSpillDirDegradesToResident) {
  PinnedEnv env;
  // Point spill_dir at a regular FILE: creating the context's spill
  // subdirectory under it must fail.
  const std::string blocker =
      ::testing::TempDir() + "/rankjoin_fault_spill_blocker";
  { std::ofstream touch(blocker); }
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;
  options.spill_dir = blocker;
  options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  std::vector<IntPair> data;
  for (int i = 0; i < 300; ++i) data.push_back({i % 7, i});
  std::vector<IntPair> out =
      *PartitionByKey(Parallelize(&ctx, std::move(data), 4), 4).TryCollect();
  EXPECT_EQ(out.size(), 300u);  // degraded, not failed
  EXPECT_TRUE(ctx.spill_degraded());
  EXPECT_GE(ctx.counters().Value("fault.spill.degraded"), 1u);
  std::filesystem::remove(blocker);
}

// ---------------------------------------------------------------------
// Chaos suite: every pipeline, byte-identical under injection
// ---------------------------------------------------------------------

/// Low-probability throws plus frequent spill corruption, with a 1-byte
/// budget so every shuffle takes the disk path. p(task_throw)^5 makes
/// retry exhaustion essentially impossible, and the fixed seed makes the
/// whole schedule reproducible.
constexpr char kChaosSpec[] = "task_throw:p=0.03;spill_corrupt:p=0.3;seed=11";

Context::Options ChaosCluster(const std::string& fault_spec) {
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 1;
  options.trace_level = TraceLevel::kCounters;
  options.retry_backoff_ms = 0;
  options.fault_spec = fault_spec;
  return options;
}

void ExpectChaosActivity(const Context& ctx, const std::string& label) {
  const uint64_t injected =
      ctx.counters().Value("fault.task_throw.injected") +
      ctx.counters().Value("fault.spill_corrupt.injected");
  const uint64_t recovered = ctx.counters().Value("fault.task.recovered") +
                             ctx.counters().Value("fault.spill.recovered");
  EXPECT_GE(injected, 1u) << label << ": no fault was injected";
  EXPECT_GE(recovered, 1u) << label << ": no fault was recovered";
}

TEST(ChaosTest, RankingPipelinesAreByteIdenticalUnderInjection) {
  PinnedEnv env;
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/5, /*n=*/220,
                                                    /*k=*/8);
  const std::vector<Algorithm> algorithms = {
      Algorithm::kVJ, Algorithm::kVJNL, Algorithm::kCL, Algorithm::kCLP,
      Algorithm::kVSmart};
  for (Algorithm algorithm : algorithms) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = 0.3;
    config.delta = 50;  // exercise the CL-P repartitioning path
    Context clean_ctx(ChaosCluster(""));
    Result<JoinResult> clean = RunSimilarityJoin(&clean_ctx, dataset, config);
    ASSERT_TRUE(clean.ok()) << clean.status();
    Context chaos_ctx(ChaosCluster(kChaosSpec));
    Result<JoinResult> chaos = RunSimilarityJoin(&chaos_ctx, dataset, config);
    ASSERT_TRUE(chaos.ok()) << chaos.status();
    EXPECT_EQ(PairSet(clean->pairs), PairSet(chaos->pairs))
        << "algorithm " << static_cast<int>(algorithm);
    ExpectChaosActivity(chaos_ctx,
                        "algorithm " + std::to_string(
                                           static_cast<int>(algorithm)));
  }
}

TEST(ChaosTest, JaccardPipelinesAreByteIdenticalUnderInjection) {
  PinnedEnv env;
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/6, /*n=*/220,
                                                    /*k=*/8);
  JaccardJoinOptions options;
  options.theta = 0.35;
  using Runner = Result<JoinResult> (*)(Context*, const RankingDataset&,
                                        const JaccardJoinOptions&);
  const std::vector<std::pair<const char*, Runner>> pipelines = {
      {"jaccard-vj", &RunJaccardVjJoin},
      {"jaccard-cl", &RunJaccardClusterJoin}};
  for (const auto& [label, runner] : pipelines) {
    Context clean_ctx(ChaosCluster(""));
    Result<JoinResult> clean = runner(&clean_ctx, dataset, options);
    ASSERT_TRUE(clean.ok()) << clean.status();
    Context chaos_ctx(ChaosCluster(kChaosSpec));
    Result<JoinResult> chaos = runner(&chaos_ctx, dataset, options);
    ASSERT_TRUE(chaos.ok()) << chaos.status();
    EXPECT_EQ(PairSet(clean->pairs), PairSet(chaos->pairs)) << label;
    ExpectChaosActivity(chaos_ctx, label);
  }
}

// ---------------------------------------------------------------------
// Failed stages through the join entry points
// ---------------------------------------------------------------------

/// A stage that runs out of retries fails the job with its Status from
/// every Result-returning entry point instead of aborting the process.
TEST(JobFailureTest, EveryEntryPointReturnsTheFailedStage) {
  rankjoin::testutil::PinnedEnv env;
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/5, /*n=*/220,
                                                    /*k=*/8);
  const RankingDataset other = SmallSkewedDataset(/*seed=*/6, /*n=*/150,
                                                  /*k=*/8);
  VjOptions vj;
  vj.theta = 0.3;
  ClOptions cl;
  cl.theta = 0.3;
  ClOptions clp = cl;
  clp.repartition_delta = 8;  // splits lists
  RsJoinOptions rs;
  rs.theta = 0.3;
  VSmartOptions vsmart;
  vsmart.theta = 0.3;
  JaccardJoinOptions jaccard;
  jaccard.theta = 0.35;
  SimilarityJoinConfig auto_config;
  auto_config.algorithm = Algorithm::kAuto;
  auto_config.theta = 0.3;
  using Run = std::function<Result<JoinResult>(Context*)>;
  const std::vector<std::pair<const char*, Run>> entry_points = {
      {"vj", [&](Context* ctx) { return RunVjJoin(ctx, dataset, vj); }},
      {"vj-nl", [&](Context* ctx) { return RunVjNlJoin(ctx, dataset, vj); }},
      {"cl", [&](Context* ctx) { return RunClusterJoin(ctx, dataset, cl); }},
      {"cl-p",
       [&](Context* ctx) { return RunClusterJoin(ctx, dataset, clp); }},
      {"rs", [&](Context* ctx) { return RunRsJoin(ctx, dataset, other, rs); }},
      {"v-smart",
       [&](Context* ctx) { return RunVSmartJoin(ctx, dataset, vsmart); }},
      {"jaccard-vj",
       [&](Context* ctx) { return RunJaccardVjJoin(ctx, dataset, jaccard); }},
      {"jaccard-cl",
       [&](Context* ctx) {
         return RunJaccardClusterJoin(ctx, dataset, jaccard);
       }},
      {"auto",
       [&](Context* ctx) {
         return RunSimilarityJoin(ctx, dataset, auto_config);
       }},
  };
  for (const auto& [label, run] : entry_points) {
    SCOPED_TRACE(label);
    Context::Options options = TestCluster();
    options.fault_spec = "task_throw:p=1;seed=1";  // every attempt fails
    options.retry_backoff_ms = 0;
    Context ctx(options);
    const Result<JoinResult> result = run(&ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("injected task fault"),
              std::string::npos)
        << result.status();
  }
}

/// The kFail disk-pressure policy's IoError reaches the join's caller.
TEST(JobFailureTest, DiskPressureFailReturnsIoError) {
  rankjoin::testutil::PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 64;
  options.fault_spec = "spill_enospc:p=1;seed=1";
  options.retry_backoff_ms = 0;
  options.disk_pressure_policy = DiskPressurePolicy::kFail;
  Context ctx(options);
  VjOptions vj;
  vj.theta = 0.3;
  const Result<JoinResult> result =
      RunVjJoin(&ctx, SmallSkewedDataset(/*seed=*/5, /*n=*/220, /*k=*/8), vj);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError) << result.status();
}

}  // namespace
}  // namespace rankjoin::minispark

// Job deadlines and cooperative cancellation: a deadline that expires
// mid-shuffle surfaces kDeadlineExceeded as a structured Status well
// within 2x the deadline and leaks no threads; Cancel() from a second
// thread during a pipelined chaos join drains cleanly; both knobs plumb
// through the environment overrides, and a numeric override that is
// not a whole decimal number in range is refused with a warning.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "minispark/context.h"
#include "minispark/dataset.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::PinnedEnv;
using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::TestCluster;

std::vector<std::pair<int, int>> IntPairs(int n, int key_mod) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) data.push_back({i % key_mod, i});
  return data;
}

/// Live threads of this process (/proc/self/task), or -1 off-Linux.
int CountThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (const auto& entry : it) {
    (void)entry;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

TEST(DeadlineTest, ExpiredDeadlineFailsNextSubmissionFast) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.job_deadline_ms = 1;
  Context ctx(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.DeadlineRemainingMs(), 0);

  auto result =
      GroupByKey(Parallelize(&ctx, IntPairs(200, 7), 4), 4).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, MidShuffleDeadlineWithinTwiceTheBudgetNoLeakedThreads) {
  PinnedEnv env;
  const int before = CountThreads();

  constexpr int64_t kDeadlineMs = 200;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point done;
  {
    Context::Options options = TestCluster();
    options.job_deadline_ms = kDeadlineMs;
    options.retry_backoff_ms = 0;
    Context ctx(options);
    // Without the deadline this shuffle takes > 2x kDeadlineMs: the map
    // side sleeps 1 ms every 500 records (~250 ms per task, two waves
    // over 4 workers), so the deadline always lands mid-shuffle and is
    // noticed by a record-boundary probe, not at submission. The tasks
    // make the 1M records themselves, 1000 per block id: built up front
    // on the test thread, they took most of the budget under sanitizers
    // before the shuffle was submitted, and the job then failed at
    // submission.
    start = std::chrono::steady_clock::now();
    std::vector<int> blocks(1000);
    std::iota(blocks.begin(), blocks.end(), 0);
    auto slow = Parallelize(&ctx, std::move(blocks), 8)
                    .FlatMap([](int block) {
                      std::vector<std::pair<int, int>> records;
                      records.reserve(1000);
                      for (int i = block * 1000; i < (block + 1) * 1000;
                           ++i) {
                        records.push_back({i % 97, i});
                      }
                      return records;
                    })
                    .Map([](std::pair<int, int> kv) {
                      if (kv.second % 500 == 0) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                      }
                      return kv;
                    });
    auto result = GroupByKey(slow, 8).TryCollect();
    done = std::chrono::steady_clock::now();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    // Deadline state is exported for /metrics + /healthz.
    EXPECT_EQ(ctx.telemetry().deadline_remaining_ms(), 0);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(done - start)
          .count();
  EXPECT_LT(elapsed_ms, 2 * kDeadlineMs)
      << "deadline noticed too late (" << elapsed_ms << " ms)";

  if (before > 0) {
    // The context destructor joins the pool; nothing may outlive it.
    int after = CountThreads();
    for (int i = 0; i < 100 && after > before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      after = CountThreads();
    }
    EXPECT_LE(after, before) << "leaked threads after deadline abort";
  }
}

TEST(DeadlineTest, ExpiredDeadlineSurfacesThroughPipelinesAsStatus) {
  // The join pipelines use throwing actions internally; a stop must
  // unwind through them to the Result-returning entry point as a
  // structured Status (JobFailedError + CatchJobFailure), never abort.
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.job_deadline_ms = 1;
  Context ctx(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  RankingDataset ds = rankjoin::testutil::SmallSkewedDataset(7, 200);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = 0.3;
  config.theta_c = 0.03;
  auto result = RunSimilarityJoin(&ctx, ds, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTest, CancelSurfacesThroughPipelinesAsStatus) {
  PinnedEnv env;
  Context ctx(TestCluster());
  ctx.Cancel();

  RankingDataset ds = rankjoin::testutil::SmallSkewedDataset(8, 200);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kVJ;
  config.theta = 0.3;
  auto result = RunSimilarityJoin(&ctx, ds, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, GenerousDeadlineDoesNotPerturbResults) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.job_deadline_ms = 60'000;
  Context ctx(options);
  auto with_deadline =
      ReduceByKey(Parallelize(&ctx, IntPairs(600, 11), 8),
                  [](int a, int b) { return a + b; }, 8)
          .TryCollect();
  ASSERT_TRUE(with_deadline.ok()) << with_deadline.status();
  EXPECT_GE(ctx.DeadlineRemainingMs(), 1);

  Context plain_ctx(TestCluster());
  auto plain =
      ReduceByKey(Parallelize(&plain_ctx, IntPairs(600, 11), 8),
                  [](int a, int b) { return a + b; }, 8)
          .TryCollect();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, *with_deadline);
}

TEST(DeadlineTest, EnvOverrideConfiguresDeadline) {
  PinnedEnv env;
  ScopedEnv ms{"RANKJOIN_JOB_DEADLINE_MS", "1"};
  Context ctx(TestCluster());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

/// A small ReduceByKey job that must run to completion under `ctx`.
void ExpectSmallJobCompletes(Context* ctx) {
  auto result = ReduceByKey(Parallelize(ctx, IntPairs(600, 11), 8),
                            [](int a, int b) { return a + b; }, 8)
                    .TryCollect();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 11u);
}

TEST(DeadlineTest, EnvDeadlineAboveTheCapIsRefusedAndTheJobRuns) {
  PinnedEnv env;
  // 10^16 ms is above the 10^15 cap (and would overflow int64_t counted
  // in microseconds): the override is ignored with a warning, so the job
  // has no deadline.
  ScopedEnv ms{"RANKJOIN_JOB_DEADLINE_MS", "10000000000000000"};
  testing::internal::CaptureStderr();
  Context ctx(TestCluster());
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("RANKJOIN_JOB_DEADLINE_MS"), std::string::npos) << log;
  EXPECT_EQ(ctx.DeadlineRemainingMs(), -1);
  ExpectSmallJobCompletes(&ctx);
  EXPECT_FALSE(ctx.StopRequested());
}

TEST(DeadlineTest, EnvDeadlineAtTheCapIsAccepted) {
  PinnedEnv env;
  ScopedEnv ms{"RANKJOIN_JOB_DEADLINE_MS", "1000000000000000"};
  Context ctx(TestCluster());
  EXPECT_GT(ctx.DeadlineRemainingMs(), 0);
  ExpectSmallJobCompletes(&ctx);
  EXPECT_FALSE(ctx.StopRequested());
}

TEST(DeadlineTest, ProgrammaticDeadlineSaturatesInsteadOfOverflowing) {
  PinnedEnv env;
  for (const int64_t ms : {INT64_MAX / 1000 + 1, INT64_MAX}) {
    Context::Options options = TestCluster();
    options.job_deadline_ms = ms;
    Context ctx(options);
    // Too far out to count in microseconds: the deadline never passes.
    EXPECT_EQ(ctx.DeadlineRemainingMs(), -1) << ms;
    ExpectSmallJobCompletes(&ctx);
    EXPECT_FALSE(ctx.StopRequested()) << ms;
  }
}

TEST(EnvOverrideTest, NumericOverridesAreWholeDecimalsInRange) {
  PinnedEnv env;
  ScopedEnv port{"RANKJOIN_STATS_PORT", nullptr};
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 123;
  for (const char* bad : {"4k", "80x", "-1", "", " 7", "+7", "0x10", "1e3",
                          "18446744073709551616"}) {
    ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", bad};
    testing::internal::CaptureStderr();
    Context ctx(options);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ctx.shuffle_memory_budget_bytes(), 123u) << "'" << bad << "'";
    EXPECT_NE(log.find("RANKJOIN_SHUFFLE_BUDGET_BYTES"), std::string::npos)
        << log;
  }
  for (const char* bad : {"80x", "65536", "-1", "8080 "}) {
    ScopedEnv stats{"RANKJOIN_STATS_PORT", bad};
    testing::internal::CaptureStderr();
    Context ctx(options);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ctx.stats_port(), -1) << "'" << bad << "'";  // still off
    EXPECT_NE(log.find("RANKJOIN_STATS_PORT"), std::string::npos) << log;
  }
  for (const auto& [text, value] :
       {std::pair<const char*, uint64_t>{"4096", 4096},
        std::pair<const char*, uint64_t>{"18446744073709551615",
                                         UINT64_MAX}}) {
    ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", text};
    Context ctx(options);
    EXPECT_EQ(ctx.shuffle_memory_budget_bytes(), value) << text;
    ExpectSmallJobCompletes(&ctx);
  }
}

TEST(EnvOverrideTest, SpelledOverridesAcceptOnlyTheirSpellings) {
  PinnedEnv env;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rankjoin_env_spellings")
          .string();
  std::filesystem::remove_all(dir);
  Context::Options options = TestCluster();
  options.checkpoint_dir = dir;  // so the resume flag is observable
  options.trace_level = TraceLevel::kCounters;
  options.lint_level = LintLevel::kWarn;
  options.pipelined_stages = true;
  options.resume = true;
  const char* names[] = {"RANKJOIN_TRACE_LEVEL", "RANKJOIN_LINT_LEVEL",
                         "RANKJOIN_PIPELINED_STAGES", "RANKJOIN_RESUME"};
  for (const char* bad : {"countrs", "yes_please", "", " on", "2x", "ON!"}) {
    ScopedEnv trace{names[0], bad};
    ScopedEnv lint{names[1], bad};
    ScopedEnv pipelined{names[2], bad};
    ScopedEnv resume{names[3], bad};
    testing::internal::CaptureStderr();
    Context ctx(options);
    const std::string log = testing::internal::GetCapturedStderr();
    // The programmatic options stay, and each variable is named once.
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kCounters) << "'" << bad << "'";
    EXPECT_EQ(ctx.lint_level(), LintLevel::kWarn) << "'" << bad << "'";
    EXPECT_TRUE(ctx.pipelined_stages()) << "'" << bad << "'";
    EXPECT_TRUE(ctx.checkpoint_manager()->resume()) << "'" << bad << "'";
    for (const char* name : names) {
      const size_t at = log.find(name);
      EXPECT_NE(at, std::string::npos) << log;
      EXPECT_EQ(log.find(name, at + 1), std::string::npos) << log;
    }
  }
  // A malformed fault spec is ignored the same way; the programmatic
  // spec stays.
  Context::Options seeded = TestCluster();
  seeded.fault_spec = "task_throw:p=0;seed=3";
  for (const char* bad : {"task_throw:p=banana", "task_throw", "bogus:p=1",
                          "seed=x", "countrs"}) {
    ScopedEnv fault{"RANKJOIN_FAULT_SPEC", bad};
    testing::internal::CaptureStderr();
    Context ctx(seeded);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ctx.fault_injector().spec().seed, 3u) << "'" << bad << "'";
    EXPECT_NE(log.find("RANKJOIN_FAULT_SPEC"), std::string::npos) << log;
  }
  for (const auto& [text, seed] : {std::pair<const char*, uint64_t>{"", 42},
                                   {"task_throw:p=0;seed=9", 9}}) {
    ScopedEnv fault{"RANKJOIN_FAULT_SPEC", text};
    Context ctx(seeded);
    EXPECT_EQ(ctx.fault_injector().spec().seed, seed) << "'" << text << "'";
  }
  // The spellings the CI env steps use still apply.
  Context::Options plain = TestCluster();
  plain.checkpoint_dir = dir;
  {
    ScopedEnv trace{names[0], "timers"};
    ScopedEnv lint{names[1], "error"};
    ScopedEnv pipelined{names[2], "on"};
    ScopedEnv resume{names[3], "1"};
    Context ctx(plain);
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kTimers);
    EXPECT_EQ(ctx.lint_level(), LintLevel::kError);
    EXPECT_TRUE(ctx.pipelined_stages());
    EXPECT_TRUE(ctx.checkpoint_manager()->resume());
  }
  {
    ScopedEnv trace{names[0], "counters"};
    Context ctx(plain);
    EXPECT_EQ(ctx.trace_level(), TraceLevel::kCounters);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(CancelTest, CancelFromSecondThreadDuringPipelinedChaosShuffleDrains) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.pipelined_stages = true;
  options.fault_spec = "task_throw:p=0.05;seed=7";
  options.retry_backoff_ms = 0;
  Context ctx(options);

  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.Cancel();
  });
  // Map-side sleeps keep every wave busy well past the cancel point.
  std::vector<std::pair<int, int>> both = IntPairs(400'000, 50'000);
  const std::vector<std::pair<int, int>> more = IntPairs(300'000, 50'000);
  both.insert(both.end(), more.begin(), more.end());
  auto slow = Parallelize(&ctx, std::move(both), 16)
                  .Map([](std::pair<int, int> kv) {
                    if (kv.second % 500 == 0) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                    return kv;
                  });
  auto result = GroupByKey(slow, 8).TryCollect();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The context drains cleanly: later submissions fail with the same
  // structured status instead of hanging or aborting.
  auto after =
      GroupByKey(Parallelize(&ctx, IntPairs(100, 5), 4), 4).TryCollect();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST(CancelTest, CancelIsIdempotentAndFirstCauseWins) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.job_deadline_ms = 60'000;
  Context ctx(options);
  ctx.Cancel();
  ctx.Cancel();
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.StopStatus().code(), StatusCode::kCancelled);
  auto result =
      GroupByKey(Parallelize(&ctx, IntPairs(100, 5), 4), 4).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace rankjoin::minispark

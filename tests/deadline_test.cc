// Job deadlines and cooperative cancellation: a deadline that expires
// mid-shuffle surfaces kDeadlineExceeded as a structured Status well
// within 2x the deadline and leaks no threads; Cancel() from a second
// thread during a pipelined chaos join drains cleanly; both knobs plumb
// through the environment overrides.

#include <gtest/gtest.h>

#include <chrono>
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

using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::TestCluster;

struct PinnedEnv {
  ScopedEnv fault{"RANKJOIN_FAULT_SPEC", nullptr};
  ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr};
  ScopedEnv trace{"RANKJOIN_TRACE_LEVEL", nullptr};
  ScopedEnv lint{"RANKJOIN_LINT_LEVEL", nullptr};
  ScopedEnv pipelined{"RANKJOIN_PIPELINED_STAGES", nullptr};
  ScopedEnv ckpt_dir{"RANKJOIN_CHECKPOINT_DIR", nullptr};
  ScopedEnv resume{"RANKJOIN_RESUME", nullptr};
  ScopedEnv deadline{"RANKJOIN_JOB_DEADLINE_MS", nullptr};
};

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
  // The join pipelines use CHECK-semantics actions internally; a stop
  // must unwind through them to the Result-returning entry point as a
  // structured Status (JobStoppedError + StopAware), never abort.
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

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(CancelTest, CancelFromSecondThreadDuringPipelinedChaosJoinDrains) {
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
  auto left = Parallelize(&ctx, IntPairs(400'000, 50'000), 8)
                  .Map([](std::pair<int, int> kv) {
                    if (kv.second % 500 == 0) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                    return kv;
                  });
  auto right = Parallelize(&ctx, IntPairs(300'000, 50'000), 8);
  auto result = Join(left, right, 8).TryCollect();
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

// Pipelined producer/consumer stage execution vs the classic barrier:
// every wide operation and every join pipeline must produce identical
// results in both modes — including byte-identical partition order
// (pipelined readers consume mapper-major, exactly like the barrier
// read), and including under chaos fault injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "minispark/context.h"
#include "minispark/dataset.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::PairSet;
using rankjoin::testutil::PinnedEnv;
using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::SmallSkewedDataset;
using rankjoin::testutil::TestCluster;

/// Runs `job` under a barrier context and a pipelined context (both with
/// a tiny shuffle budget so spilling is exercised) and returns both
/// collected outputs for exact comparison.
template <typename Job>
auto RunBothModes(Job&& job) {
  auto run = [&job](bool pipelined) {
    Context::Options options = TestCluster();
    options.shuffle_memory_budget_bytes = 256;  // force spills
    options.pipelined_stages = pipelined;
    Context ctx(options);
    return job(&ctx);
  };
  return std::make_pair(run(false), run(true));
}

std::vector<std::pair<int, int>> IntPairs(int n, int key_mod) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) data.push_back({i % key_mod, i});
  return data;
}

// ---------------------------------------------------------------------
// Operation-level equality: each wide op, barrier vs pipelined
// ---------------------------------------------------------------------

TEST(PipelinedOpTest, PartitionByKeyIdentical) {
  PinnedEnv env;
  auto [barrier, pipelined] = RunBothModes([](Context* ctx) {
    auto ds = Parallelize(ctx, IntPairs(500, 13), 8);
    return *PartitionByKey(ds, 8).TryCollect();
  });
  EXPECT_EQ(barrier, pipelined);
}

TEST(PipelinedOpTest, GroupByKeyIdentical) {
  PinnedEnv env;
  auto [barrier, pipelined] = RunBothModes([](Context* ctx) {
    auto ds = Parallelize(ctx, IntPairs(400, 7), 8);
    return *GroupByKey(ds, 8).TryCollect();
  });
  EXPECT_EQ(barrier, pipelined);
}

TEST(PipelinedOpTest, ReduceByKeyIdentical) {
  PinnedEnv env;
  auto [barrier, pipelined] = RunBothModes([](Context* ctx) {
    auto ds = Parallelize(ctx, IntPairs(600, 11), 8);
    return *ReduceByKey(ds, [](int a, int b) { return a + b; }, 8)
                .TryCollect();
  });
  EXPECT_EQ(barrier, pipelined);
}

// ---------------------------------------------------------------------
// Pipeline-level equality: all seven join pipelines
// ---------------------------------------------------------------------

/// Runs all five footrule pipelines plus the two Jaccard joins in the
/// given mode and returns their result-pair sets in a fixed order.
std::vector<std::set<ResultPair>> RunAllPipelines(
    const RankingDataset& ds, bool pipelined,
    const std::string& fault_spec = "") {
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 4096;  // exercise spilling
  options.pipelined_stages = pipelined;
  options.retry_backoff_ms = 0;
  options.fault_spec = fault_spec;
  Context ctx(options);

  std::vector<std::set<ResultPair>> results;
  for (Algorithm algorithm : {Algorithm::kVJ, Algorithm::kVJNL,
                              Algorithm::kCL, Algorithm::kCLP,
                              Algorithm::kVSmart}) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = 0.3;
    config.delta = 50;  // CL-P
    auto result = RunSimilarityJoin(&ctx, ds, config);
    EXPECT_TRUE(result.ok()) << AlgorithmName(algorithm) << ": "
                             << result.status();
    results.push_back(result.ok() ? PairSet(result->pairs)
                                  : std::set<ResultPair>{});
  }
  JaccardJoinOptions jaccard;
  jaccard.theta = 0.4;
  auto jvj = RunJaccardVjJoin(&ctx, ds, jaccard);
  EXPECT_TRUE(jvj.ok()) << jvj.status();
  results.push_back(jvj.ok() ? PairSet(jvj->pairs) : std::set<ResultPair>{});
  auto jcl = RunJaccardClusterJoin(&ctx, ds, jaccard);
  EXPECT_TRUE(jcl.ok()) << jcl.status();
  results.push_back(jcl.ok() ? PairSet(jcl->pairs) : std::set<ResultPair>{});
  return results;
}

TEST(PipelinedJoinTest, AllSevenPipelinesMatchBarrier) {
  PinnedEnv env;
  RankingDataset ds = SmallSkewedDataset(21, 300);
  const auto barrier = RunAllPipelines(ds, false);
  const auto pipelined = RunAllPipelines(ds, true);
  ASSERT_EQ(barrier.size(), 7u);
  for (size_t i = 0; i < barrier.size(); ++i) {
    EXPECT_EQ(barrier[i], pipelined[i]) << "pipeline #" << i;
    EXPECT_FALSE(barrier[i].empty()) << "pipeline #" << i << " found nothing";
  }
}

TEST(PipelinedJoinTest, MatchesBarrierUnderChaos) {
  PinnedEnv env;
  RankingDataset ds = SmallSkewedDataset(22, 250);
  const std::string chaos = "task_throw:p=0.03;spill_corrupt:p=0.3;seed=11";
  const auto clean = RunAllPipelines(ds, false);
  const auto pipelined = RunAllPipelines(ds, true, chaos);
  ASSERT_EQ(clean.size(), pipelined.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i], pipelined[i]) << "pipeline #" << i;
  }
}

// ---------------------------------------------------------------------
// Failure propagation: a dead producer must not hang the readers
// ---------------------------------------------------------------------

TEST(PipelinedFailureTest, MapFailureSurfacesWithoutHanging) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.pipelined_stages = true;
  options.max_task_retries = 1;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  auto pairs = Parallelize(&ctx, IntPairs(400, 5), 8)
                   .Map([](std::pair<int, int> kv) {
                     if (kv.second == 123) {
                       throw std::runtime_error("poison pill");
                     }
                     return kv;
                   });
  auto result = GroupByKey(pairs, 8).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("poison pill"),
            std::string::npos);
}

TEST(PipelinedFailureTest, InjectedExhaustionSurfaces) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.pipelined_stages = true;
  options.fault_spec = "task_throw:p=1;seed=3";  // every attempt fails
  options.max_task_retries = 1;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  auto result =
      PartitionByKey(Parallelize(&ctx, IntPairs(100, 4), 4), 4).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------

TEST(PipelinedOptionsTest, EnvOverrideTogglesMode) {
  PinnedEnv env;
  // The Context constructor applies the environment overrides.
  {
    ScopedEnv on{"RANKJOIN_PIPELINED_STAGES", "1"};
    Context ctx(TestCluster());
    EXPECT_TRUE(ctx.pipelined_stages());
  }
  {
    ScopedEnv off{"RANKJOIN_PIPELINED_STAGES", "off"};
    Context::Options options = TestCluster();
    options.pipelined_stages = true;
    Context ctx(options);
    EXPECT_FALSE(ctx.pipelined_stages());
  }
}

TEST(PipelinedOptionsTest, QueueDepthResolvesToWorkerFloor) {
  PinnedEnv env;
  Context::Options options = TestCluster(/*workers=*/2);
  options.pipelined_stages = true;
  Context ctx(options);
  EXPECT_EQ(ctx.pipelined_window(), 4);  // max(4, num_workers)
}

}  // namespace
}  // namespace rankjoin::minispark

// Property tests for the lazy stage-fused execution engine: every join
// pipeline must produce the brute-force pair set, each pair once, with
// its narrow chains fused into their stages, and fusion must actually
// run a narrow chain as one stage.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity_join.h"
#include "minispark/dataset.h"
#include "minispark/metrics.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using minispark::Context;
using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;
using testutil::Truth;

SimilarityJoinConfig ConfigFor(Algorithm algorithm) {
  SimilarityJoinConfig config;
  config.algorithm = algorithm;
  config.theta = 0.25;
  config.theta_c = 0.05;
  if (algorithm == Algorithm::kCLP) config.delta = 8;
  return config;
}

/// Every algorithm of the paper's evaluation returns the brute-force
/// pair set, each qualifying pair exactly once (smaller id first).
TEST(FusionPropertyTest, EveryAlgorithmReturnsEachTruePairOnce) {
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/7, /*n=*/300);
  const std::set<ResultPair> truth = Truth(dataset, 0.25);
  const Algorithm algorithms[] = {Algorithm::kBruteForce, Algorithm::kVJ,
                                  Algorithm::kVJNL,       Algorithm::kCL,
                                  Algorithm::kCLP,        Algorithm::kVSmart};
  for (Algorithm algorithm : algorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    Context ctx(TestCluster());
    auto result = RunSimilarityJoin(&ctx, dataset, ConfigFor(algorithm));
    ASSERT_TRUE(result.ok()) << result.status().message();
    // Each exactly once: no duplicates hiding behind the set compare.
    EXPECT_EQ(result->pairs.size(), PairSet(result->pairs).size());
    EXPECT_EQ(PairSet(result->pairs), truth);
  }
}

/// A narrow three-op chain executes as exactly one stage (plus the
/// source), and the stage advertises the fused logical ops.
TEST(FusionMetricsTest, NarrowChainFusesToSingleStage) {
  Context ctx(TestCluster());
  std::vector<int> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(i);
  auto chain =
      minispark::Parallelize(&ctx, data, 4)
          .Map([](const int& x) { return x + 1; }, "inc")
          .Filter([](const int& x) { return x % 2 == 0; }, "evens")
          .FlatMap([](const int& x) { return std::vector<int>{x, -x}; },
                   "mirror");
  const size_t before = ctx.metrics().NumStages();
  chain.Collect();
  EXPECT_EQ(ctx.metrics().NumStages(), before + 1);
  const minispark::StageMetrics& stage = ctx.metrics().stages().back();
  EXPECT_EQ(stage.fused_ops, "map+filter+flatMap");
  EXPECT_EQ(stage.materialized_elements, 256u);
}

/// Force() materializes a chain exactly once: repeated actions on the
/// forced dataset add no further stages to the job metrics.
TEST(FusionMetricsTest, ForceMaterializesOnceViaJobMetrics) {
  Context ctx(TestCluster());
  std::vector<int> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int>(i);
  auto chain = minispark::Parallelize(&ctx, data, 4)
                   .Map([](const int& x) { return x * 3; }, "triple");
  chain.Force();
  const size_t after_force = ctx.metrics().NumStages();
  chain.Collect();
  chain.Count();
  chain.Collect();
  EXPECT_EQ(ctx.metrics().NumStages(), after_force);
}

}  // namespace
}  // namespace rankjoin

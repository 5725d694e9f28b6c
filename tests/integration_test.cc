// End-to-end workflow: generate -> persist -> reload -> analyze ->
// pick delta -> join with every algorithm -> persist results -> verify
// round trip. Exercises the same path a downstream user of the library
// (or the rankjoin_cli / make_dataset tools) would take.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "core/similarity_join.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/scale.h"
#include "data/stats.h"
#include "join/estimate.h"
#include "ranking/prefix.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::TestCluster;
using testutil::Truth;

TEST(IntegrationTest, FullWorkflowRoundTrip) {
  const std::string data_path =
      testing::TempDir() + "/rankjoin_integration_data.txt";
  const std::string result_path =
      testing::TempDir() + "/rankjoin_integration_pairs.txt";

  // 1. Generate and scale a workload.
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 150;
  generator.domain_size = 500;
  generator.zipf_skew = 1.0;
  generator.near_duplicate_rate = 0.2;
  generator.seed = 4242;
  RankingDataset base = GenerateDataset(generator);
  RankingDataset dataset = ScaleDataset(base, 3, generator.domain_size);
  ASSERT_TRUE(dataset.Validate().ok());

  // 2. Persist and reload.
  ASSERT_TRUE(WriteRankings(data_path, dataset).ok());
  auto loaded = ReadRankings(data_path, dataset.k);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), dataset.size());

  // 3. Analyze and derive the CL-P delta from the measured index.
  DatasetStats stats = ComputeDatasetStats(*loaded);
  EXPECT_EQ(stats.num_rankings, dataset.size());
  EXPECT_GT(stats.zipf_skew, 0.2);
  const double theta = 0.3;
  const int prefix =
      OverlapPrefix(RawThreshold(theta, loaded->k), loaded->k);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(loaded->rankings));
  const uint64_t delta =
      SuggestDeltaMeasured(loaded->store().Views(), prefix, 4.0, &order);
  EXPECT_GE(delta, 1u);

  // 4. Join with every algorithm; all must agree with brute force.
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = Truth(*loaded, theta);
  EXPECT_FALSE(expected.empty());
  std::vector<ResultPair> clp_pairs;
  for (Algorithm algorithm : {Algorithm::kVJ, Algorithm::kVJNL,
                              Algorithm::kCL, Algorithm::kCLP,
                              Algorithm::kVSmart}) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = theta;
    config.theta_c = 0.03;
    config.delta = delta;
    auto result = RunSimilarityJoin(&ctx, *loaded, config);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), expected) << AlgorithmName(algorithm);
    if (algorithm == Algorithm::kCLP) clp_pairs = result->pairs;
  }

  // 5. Persist results and verify the file contents.
  ASSERT_TRUE(WriteResultPairs(result_path, clp_pairs).ok());
  std::ifstream in(result_path);
  std::set<ResultPair> reread;
  RankingId a = 0;
  RankingId b = 0;
  while (in >> a >> b) reread.insert({a, b});
  EXPECT_EQ(reread, expected);

  std::remove(data_path.c_str());
  std::remove(result_path.c_str());
}

TEST(IntegrationTest, MetricsSurviveAcrossRuns) {
  // One context, several jobs: stage metrics accumulate and the
  // simulated makespan stays monotone in recorded work.
  RankingDataset ds = testutil::SmallSkewedDataset(4343, 150);
  minispark::Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kVJ;
  config.theta = 0.2;
  ASSERT_TRUE(RunSimilarityJoin(&ctx, ds, config).ok());
  const size_t stages_after_one = ctx.metrics().stages().size();
  const double makespan_after_one = ctx.metrics().SimulatedMakespan(8);
  ASSERT_TRUE(RunSimilarityJoin(&ctx, ds, config).ok());
  EXPECT_GT(ctx.metrics().stages().size(), stages_after_one);
  EXPECT_GE(ctx.metrics().SimulatedMakespan(8), makespan_after_one);
  ctx.metrics().Clear();
  EXPECT_TRUE(ctx.metrics().stages().empty());
}

}  // namespace
}  // namespace rankjoin

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/similarity_join.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::TestCluster;
using testutil::Truth;

/// Parameterized cross-validation: every distributed algorithm must
/// produce exactly the brute-force result, for every combination of
/// dataset shape, k, and theta. This is the repository's master
/// equivalence property (the paper's algorithms are exact, not
/// approximate).
using Params = std::tuple<Algorithm, double /*theta*/, int /*k*/,
                          uint64_t /*seed*/>;

class AlgorithmEquivalenceTest : public ::testing::TestWithParam<Params> {};

TEST_P(AlgorithmEquivalenceTest, MatchesBruteForce) {
  const auto [algorithm, theta, k, seed] = GetParam();
  GeneratorOptions generator;
  generator.k = k;
  generator.num_rankings = 250;
  generator.domain_size = k * 25;
  generator.zipf_skew = 0.9;
  generator.near_duplicate_rate = 0.25;
  generator.seed = seed;
  RankingDataset ds = GenerateDataset(generator);

  minispark::Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = algorithm;
  config.theta = theta;
  config.theta_c = 0.03;
  config.delta = 40;
  auto result = RunSimilarityJoin(&ctx, ds, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, theta));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(Algorithm::kVJ, Algorithm::kVJNL, Algorithm::kCL,
                          Algorithm::kCLP, Algorithm::kVSmart,
                          Algorithm::kAuto),
        ::testing::Values(0.1, 0.25, 0.4),
        ::testing::Values(1, 2, 5, 10, 25),
        ::testing::Values(uint64_t{11}, uint64_t{12})),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_theta" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100)) +
             "_k" + std::to_string(std::get<2>(info.param)) + "_seed" +
             std::to_string(std::get<3>(info.param));
    });

/// CL-P with a delta far below the posting-list sizes: lists are split
/// into chunks and chunk pairs are joined, and each pair is still
/// emitted once (PairSet checks) by the group that owns it.
TEST(ChunkJoinEquivalenceTest, ClpChunkJoinsMatchBruteForce) {
  RankingDataset ds = testutil::SmallSkewedDataset(31, 400, 10);
  minispark::Context ctx(TestCluster());
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = 0.3;
  config.theta_c = 0.03;
  config.delta = 6;
  auto result = RunSimilarityJoin(&ctx, ds, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.lists_repartitioned, 0u);
  EXPECT_GT(result->stats.chunk_pair_joins, 0u);
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, config.theta));
}

/// Threshold-monotonicity property: results for a smaller theta are a
/// subset of results for a larger theta, per algorithm.
class MonotonicityTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(MonotonicityTest, ResultsGrowWithTheta) {
  const Algorithm algorithm = GetParam();
  RankingDataset ds = testutil::SmallSkewedDataset(600, 300);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> previous;
  for (double theta : {0.1, 0.2, 0.3, 0.4}) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = theta;
    config.delta = 60;
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << result.status();
    std::set<ResultPair> current = PairSet(result->pairs);
    for (const ResultPair& p : previous) {
      EXPECT_TRUE(current.count(p))
          << "pair lost when growing theta to " << theta;
    }
    previous = std::move(current);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MonotonicityTest,
                         ::testing::Values(Algorithm::kVJ, Algorithm::kVJNL,
                                           Algorithm::kCL, Algorithm::kCLP),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// Worker-count invariance: the execution backend must not affect the
/// result set (only the timings).
class WorkerInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkerInvarianceTest, SameResultAnyClusterSize) {
  const int workers = GetParam();
  RankingDataset ds = testutil::SmallSkewedDataset(601, 200);
  minispark::Context ctx(TestCluster(workers, workers * 2));
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = 0.3;
  config.delta = 30;
  auto result = RunSimilarityJoin(&ctx, ds, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3));
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, WorkerInvarianceTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace rankjoin

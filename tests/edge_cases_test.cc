// Cross-algorithm edge cases: degenerate datasets, extreme thresholds,
// and tiny k — every configuration must behave, not crash, and agree
// with brute force.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "join/rs_join.h"
#include "search/range_search.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::TestCluster;
using testutil::Truth;

std::vector<Algorithm> AllDistributed() {
  return {Algorithm::kVJ, Algorithm::kVJNL, Algorithm::kCL,
          Algorithm::kCLP, Algorithm::kVSmart};
}

SimilarityJoinConfig BaseConfig(Algorithm algorithm, double theta) {
  SimilarityJoinConfig config;
  config.algorithm = algorithm;
  config.theta = theta;
  config.theta_c = std::min(0.03, theta);
  config.delta = 16;
  return config;
}

TEST(EdgeCaseTest, EmptyDataset) {
  RankingDataset ds;
  ds.k = 10;
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.3));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(result->pairs.empty());
  }
}

TEST(EdgeCaseTest, SingleRanking) {
  RankingDataset ds;
  ds.k = 5;
  ds.rankings = {Ranking(0, {1, 2, 3, 4, 5})};
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.3));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(result->pairs.empty());
  }
}

TEST(EdgeCaseTest, TwoIdenticalRankings) {
  RankingDataset ds;
  ds.k = 5;
  ds.rankings = {Ranking(0, {1, 2, 3, 4, 5}), Ranking(1, {1, 2, 3, 4, 5})};
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.0));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    ASSERT_EQ(result->pairs.size(), 1u) << AlgorithmName(algorithm);
    EXPECT_EQ(result->pairs[0], MakeResultPair(0, 1));
  }
}

TEST(EdgeCaseTest, ThetaZeroOnRandomData) {
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 200;
  generator.domain_size = 100;
  generator.exact_duplicate_rate = 0.2;
  generator.seed = 808;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = Truth(ds, 0.0);
  EXPECT_FALSE(expected.empty());  // exact duplicates planted
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.0));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), expected) << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, KEqualsOne) {
  // Top-1 "rankings": similarity collapses to equality of the single
  // item (max distance = 2).
  RankingDataset ds;
  ds.k = 1;
  ds.rankings = {Ranking(0, {5}), Ranking(1, {5}), Ranking(2, {9})};
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.4));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.4))
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, KEqualsTwo) {
  GeneratorOptions generator;
  generator.k = 2;
  generator.num_rankings = 150;
  generator.domain_size = 12;
  generator.seed = 809;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.5}) {
    std::set<ResultPair> expected = Truth(ds, theta);
    for (Algorithm algorithm : AllDistributed()) {
      auto result =
          RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, theta));
      ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(PairSet(result->pairs), expected)
          << AlgorithmName(algorithm) << " theta " << theta;
    }
  }
}

TEST(EdgeCaseTest, HighThresholdNearLimit) {
  // theta = 0.9: prefix is nearly the whole ranking; everything still
  // agrees with brute force. (CL needs theta + 2*theta_c < 1.)
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 120;
  generator.domain_size = 60;
  generator.seed = 810;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = Truth(ds, 0.9);
  for (Algorithm algorithm : AllDistributed()) {
    SimilarityJoinConfig config = BaseConfig(algorithm, 0.9);
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), expected) << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, AllRankingsIdentical) {
  RankingDataset ds;
  ds.k = 4;
  for (RankingId id = 0; id < 30; ++id) {
    ds.rankings.emplace_back(id, std::vector<ItemId>{1, 2, 3, 4});
  }
  minispark::Context ctx(TestCluster());
  const size_t all_pairs = 30 * 29 / 2;
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.1));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(result->pairs.size(), all_pairs) << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, SparseIdsSupported) {
  // Non-dense ranking ids must work through every pipeline.
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(100, {1, 2, 3}), Ranking(2000, {1, 2, 3}),
                 Ranking(77777, {2, 1, 3})};
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.2));
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.2))
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, IdsNearTwoToThe32) {
  // The join store's id -> row lookup is sized by the row count, never
  // by the largest id; the CL expansion and centroid join look rows up
  // by id.
  RankingDataset ds;
  ds.k = 5;
  ds.rankings = {Ranking(7, {1, 2, 3, 4, 5}),
                 Ranking(0xFFFFFFF0u, {1, 2, 3, 5, 4}),
                 Ranking(9, {1, 2, 3, 4, 6})};
  minispark::Context ctx(TestCluster());
  for (Algorithm algorithm : AllDistributed()) {
    SimilarityJoinConfig config = BaseConfig(algorithm, 0.3);
    config.theta_c = 0.1;  // raw 3: pairs at distance 2 form clusters
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3))
        << AlgorithmName(algorithm);
  }
  JaccardJoinOptions jaccard;
  jaccard.theta = 0.4;
  jaccard.theta_c = 0.1;
  for (bool clustering : {false, true}) {
    auto result = clustering ? RunJaccardClusterJoin(&ctx, ds, jaccard)
                             : RunJaccardVjJoin(&ctx, ds, jaccard);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs),
              PairSet(JaccardBruteForceJoin(ds, jaccard.theta).pairs));
  }
}

TEST(EdgeCaseTest, NanThresholdsAreInvalidArguments) {
  // Every range check must fail on NaN: a NaN that passed one would
  // reach RawThreshold's CHECK and abort the process.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const RankingDataset ds = testutil::SmallSkewedDataset(811, 60, 5);
  minispark::Context ctx(TestCluster());
  std::vector<std::pair<std::string, std::function<Status()>>> cases;
  for (Algorithm algorithm :
       {Algorithm::kBruteForce, Algorithm::kVJ, Algorithm::kVJNL,
        Algorithm::kCL, Algorithm::kCLP, Algorithm::kVSmart,
        Algorithm::kAuto}) {
    for (bool on_theta_c : {false, true}) {
      cases.emplace_back(
          std::string(AlgorithmName(algorithm)) +
              (on_theta_c ? " theta_c" : " theta"),
          [&, algorithm, on_theta_c] {
            SimilarityJoinConfig config = BaseConfig(algorithm, 0.3);
            (on_theta_c ? config.theta_c : config.theta) = nan;
            return RunSimilarityJoin(&ctx, ds, config).status();
          });
    }
  }
  cases.emplace_back("rs theta", [&] {
    RsJoinOptions options;
    options.theta = nan;
    return RunRsJoin(&ctx, ds, ds, options).status();
  });
  for (bool clustering : {false, true}) {
    for (bool on_theta_c : {false, true}) {
      cases.emplace_back(
          std::string(clustering ? "jaccard cl" : "jaccard vj") +
              (on_theta_c ? " theta_c" : " theta"),
          [&, clustering, on_theta_c] {
            JaccardJoinOptions options;
            (on_theta_c ? options.theta_c : options.theta) = nan;
            return (clustering ? RunJaccardClusterJoin(&ctx, ds, options)
                               : RunJaccardVjJoin(&ctx, ds, options))
                .status();
          });
    }
  }
  const Ranking& query = ds.rankings[0];
  cases.emplace_back("prefix index build", [&] {
    return PrefixRangeIndex::Build(ds, nan).status();
  });
  cases.emplace_back("prefix index query", [&] {
    return PrefixRangeIndex::Build(ds, 0.3)->Query(query, nan).status();
  });
  cases.emplace_back("coarse index query", [&] {
    return CoarseRangeIndex::Build(ds, 4)->Query(query, nan).status();
  });
  for (const auto& [name, run] : cases) {
    EXPECT_EQ(run().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EdgeCaseTest, RepeatedIdsAreInvalidArguments) {
  // Two rows with id 5 and one with id 7 would make the joins report a
  // pair (5, 5), or (5, 7) twice; every algorithm rejects the input,
  // through the Ranking-vector check and through the memoized flat store.
  RankingDataset ds;
  ds.k = 4;
  ds.rankings = {Ranking(5, {1, 2, 3, 4}), Ranking(5, {1, 2, 3, 4}),
                 Ranking(7, {1, 2, 4, 3})};
  RankingDataset single;
  single.k = 4;
  single.rankings = {Ranking(5, {1, 2, 3, 4})};
  minispark::Context ctx(TestCluster());
  for (bool flat : {false, true}) {
    if (flat) ds.store();
    for (Algorithm algorithm :
         {Algorithm::kBruteForce, Algorithm::kVJ, Algorithm::kVJNL,
          Algorithm::kCL, Algorithm::kCLP, Algorithm::kVSmart,
          Algorithm::kAuto}) {
      auto result = RunSimilarityJoin(&ctx, ds, BaseConfig(algorithm, 0.3));
      ASSERT_FALSE(result.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("ranking id 5"),
                std::string::npos)
          << result.status();
    }
    RsJoinOptions options;
    options.theta = 0.3;
    EXPECT_EQ(RunRsJoin(&ctx, ds, single, options).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunRsJoin(&ctx, single, ds, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  // R and S are two datasets: one id on both sides is no repeat.
  RsJoinOptions options;
  options.theta = 0.3;
  auto rs = RunRsJoin(&ctx, single, single, options);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->pairs, (std::vector<ResultPair>{{5, 5}}));
}

}  // namespace
}  // namespace rankjoin

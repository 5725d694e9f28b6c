#include "join/rs_join.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "data/generator.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::TestCluster;

std::set<ResultPair> RsTruth(const RankingDataset& r,
                             const RankingDataset& s, double theta) {
  return PairSet(BruteForceRsJoin(r, s, theta).pairs);
}

TEST(RsJoinTest, MatchesBruteForceAcrossThetas) {
  RankingDataset r = testutil::SmallSkewedDataset(900, 250);
  RankingDataset s = testutil::SmallSkewedDataset(901, 200);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.2, 0.3, 0.4}) {
    RsJoinOptions options;
    options.theta = theta;
    auto result = RunRsJoin(&ctx, r, s, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), RsTruth(r, s, theta)) << theta;
  }
}

TEST(RsJoinTest, LargeGroupsMatchBruteForce) {
  // Over a 30-item domain most posting groups hold more than
  // kMinBucketedGroup postings of both sides, so they join in (x, y)
  // buckets below raw theta k(k - 1) = 90, and in the plain loop at it.
  auto small_domain = [](uint64_t seed) {
    GeneratorOptions options;
    options.num_rankings = 150;
    options.domain_size = 30;
    options.seed = seed;
    return GenerateDataset(options);
  };
  const RankingDataset r = small_domain(902);
  RankingDataset s = small_domain(903);
  // Perturbed copies of every fifth R ranking, so pairs qualify at
  // every threshold.
  Rng rng(904);
  for (size_t i = 0; i < r.size(); i += 5) {
    s.rankings.push_back(PerturbRanking(r.rankings[i],
                                        static_cast<RankingId>(s.size()),
                                        30, 1 + static_cast<int>(i % 2),
                                        rng));
  }
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.3, 89.5 / 110, 90.5 / 110}) {
    RsJoinOptions options;
    options.theta = theta;
    auto result = RunRsJoin(&ctx, r, s, options);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::set<ResultPair> truth = RsTruth(r, s, theta);
    EXPECT_FALSE(truth.empty()) << theta;
    EXPECT_EQ(PairSet(result->pairs), truth) << theta;
    EXPECT_EQ(result->stats.verify_passed, truth.size()) << theta;
  }
}

TEST(RsJoinTest, PairsOrientedRtoS) {
  // Ids may collide across datasets; results carry (r_id, s_id).
  RankingDataset r;
  r.k = 3;
  r.rankings = {Ranking(0, {1, 2, 3})};
  RankingDataset s;
  s.k = 3;
  s.rankings = {Ranking(0, {1, 2, 3}), Ranking(1, {9, 8, 7})};
  minispark::Context ctx(TestCluster());
  RsJoinOptions options;
  options.theta = 0.1;
  auto result = RunRsJoin(&ctx, r, s, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->pairs.size(), 1u);
  EXPECT_EQ(result->pairs[0], (ResultPair{0, 0}));  // r0 matches s0
}

TEST(RsJoinTest, EmptySides) {
  RankingDataset r = testutil::SmallSkewedDataset(902, 50);
  RankingDataset empty;
  empty.k = r.k;
  minispark::Context ctx(TestCluster());
  RsJoinOptions options;
  options.theta = 0.3;
  auto a = RunRsJoin(&ctx, r, empty, options);
  auto b = RunRsJoin(&ctx, empty, r, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->pairs.empty());
  EXPECT_TRUE(b->pairs.empty());
}

TEST(RsJoinTest, MismatchedKRejected) {
  RankingDataset r;
  r.k = 3;
  RankingDataset s;
  s.k = 5;
  minispark::Context ctx(TestCluster());
  RsJoinOptions options;
  auto result = RunRsJoin(&ctx, r, s, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RsJoinTest, PositionFilterPreservesResults) {
  RankingDataset r = testutil::SmallSkewedDataset(903, 150);
  RankingDataset s = testutil::SmallSkewedDataset(904, 150);
  minispark::Context ctx(TestCluster());
  RsJoinOptions with;
  with.theta = 0.1;
  RsJoinOptions without = with;
  without.position_filter = false;
  auto a = RunRsJoin(&ctx, r, s, with);
  auto b = RunRsJoin(&ctx, r, s, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
  EXPECT_LE(a->stats.verified, b->stats.verified);
}

TEST(RsJoinTest, NoReorderingStillCorrect) {
  RankingDataset r = testutil::SmallSkewedDataset(905, 120);
  RankingDataset s = testutil::SmallSkewedDataset(906, 120);
  minispark::Context ctx(TestCluster());
  RsJoinOptions options;
  options.theta = 0.25;
  options.reorder_by_frequency = false;
  auto result = RunRsJoin(&ctx, r, s, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), RsTruth(r, s, 0.25));
}

TEST(RsJoinTest, PartitionInvariance) {
  RankingDataset r = testutil::SmallSkewedDataset(907, 100);
  RankingDataset s = testutil::SmallSkewedDataset(908, 100);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = RsTruth(r, s, 0.3);
  for (int partitions : {1, 7, 32}) {
    RsJoinOptions options;
    options.theta = 0.3;
    options.num_partitions = partitions;
    auto result = RunRsJoin(&ctx, r, s, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), expected) << partitions;
  }
}

TEST(RsJoinTest, SelfJoinAsRsContainsSelfPairs) {
  // Running R-S with R == S yields the reflexive pairs too (distance 0
  // to itself) — documents the semantic difference from the self-join.
  RankingDataset r = testutil::SmallSkewedDataset(909, 40);
  minispark::Context ctx(TestCluster());
  RsJoinOptions options;
  options.theta = 0.0;
  auto result = RunRsJoin(&ctx, r, r, options);
  ASSERT_TRUE(result.ok());
  std::set<ResultPair> pairs = PairSet(result->pairs);
  for (const Ranking& ranking : r.rankings) {
    EXPECT_TRUE(pairs.count({ranking.id(), ranking.id()}));
  }
}

}  // namespace
}  // namespace rankjoin

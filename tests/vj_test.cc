#include "join/vj.h"

#include <gtest/gtest.h>

#include "join/vj_nl.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;
using testutil::Truth;

TEST(VjTest, MatchesBruteForceAcrossThetas) {
  RankingDataset ds = SmallSkewedDataset(100);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.2, 0.3, 0.4}) {
    VjOptions options;
    options.theta = theta;
    auto result = RunVjJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, theta)) << "theta " << theta;
  }
}

TEST(VjTest, NestedLoopVariantMatchesBruteForce) {
  RankingDataset ds = SmallSkewedDataset(101);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.3}) {
    VjOptions options;
    options.theta = theta;
    auto result = RunVjNlJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, theta));
  }
}

TEST(VjTest, WithoutReorderingStillCorrect) {
  RankingDataset ds = SmallSkewedDataset(102);
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 0.25;
  options.reorder_by_frequency = false;
  auto result = RunVjJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.25));
}

TEST(VjTest, OrderedPrefixModeCorrect) {
  RankingDataset ds = SmallSkewedDataset(103);
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 0.3;
  options.reorder_by_frequency = false;  // required by Lemma 4.1 prefixes
  options.prefix_mode = PrefixMode::kOrdered;
  auto result = RunVjJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3));
}

TEST(VjTest, OrderedPrefixFindsPairsSharingOnlyTopItems) {
  // The ordered prefix (Lemma 4.1, p = 5 here) keys the groups by each
  // ranking's best-ranked items, while the canonical order (item ids,
  // reordering off) starts with items 1..5 and 6..9. The pair shares
  // only its top five items, at distance 30 <= 33: the group join must
  // filter with the same prefix rule that built the group.
  RankingDataset ds;
  ds.k = 10;
  ds.rankings = {Ranking(0, {10, 11, 12, 13, 14, 1, 2, 3, 4, 5}),
                 Ranking(1, {10, 11, 12, 13, 14, 6, 7, 8, 9, 15})};
  ASSERT_EQ(Truth(ds, 0.3), (std::set<ResultPair>{{0, 1}}));
  minispark::Context ctx(TestCluster());
  for (LocalAlgorithm local :
       {LocalAlgorithm::kPrefixIndex, LocalAlgorithm::kNestedLoop}) {
    VjOptions options;
    options.theta = 0.3;
    options.reorder_by_frequency = false;
    options.prefix_mode = PrefixMode::kOrdered;
    options.local_algorithm = local;
    auto result = RunVjJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3));
  }
}

TEST(VjTest, OrderedPrefixRejectsReordering) {
  RankingDataset ds = SmallSkewedDataset(104, 50);
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.prefix_mode = PrefixMode::kOrdered;
  options.reorder_by_frequency = true;
  auto result = RunVjJoin(&ctx, ds, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(VjTest, PositionFilterDoesNotChangeResults) {
  RankingDataset ds = SmallSkewedDataset(105);
  minispark::Context ctx(TestCluster());
  VjOptions with;
  // The rank-difference bound raw_theta/2 only bites when it is below
  // the maximum possible difference k, i.e. theta < 2/(k+1); use the
  // paper's smallest threshold.
  with.theta = 0.1;
  VjOptions without = with;
  without.position_filter = false;
  auto a = RunVjJoin(&ctx, ds, with);
  auto b = RunVjJoin(&ctx, ds, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
  EXPECT_GT(a->stats.position_filtered, 0u);
  EXPECT_LE(a->stats.verified, b->stats.verified);
}

TEST(VjTest, RepartitioningPreservesResults) {
  RankingDataset ds = SmallSkewedDataset(106);
  minispark::Context ctx(TestCluster());
  // The longest posting list of this fixture holds 12 rows, so deltas 5
  // and 10 split lists and 100 splits none.
  for (uint64_t delta : {5u, 10u, 100u}) {
    VjOptions options;
    options.theta = 0.3;
    options.local_algorithm = LocalAlgorithm::kNestedLoop;
    options.repartition_delta = delta;
    auto result = RunVjJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3)) << "delta " << delta;
    if (delta <= 10) {
      EXPECT_GT(result->stats.lists_repartitioned, 0u);
      EXPECT_GT(result->stats.chunk_pair_joins, 0u);
    }
  }
}

TEST(VjTest, RejectsThetaOutOfRange) {
  RankingDataset ds = SmallSkewedDataset(107, 20);
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 1.0;
  EXPECT_FALSE(RunVjJoin(&ctx, ds, options).ok());
  options.theta = -0.1;
  EXPECT_FALSE(RunVjJoin(&ctx, ds, options).ok());
}

TEST(VjTest, RejectsInvalidDataset) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings = {Ranking(0, {1, 2})};  // wrong length
  minispark::Context ctx(TestCluster());
  VjOptions options;
  EXPECT_FALSE(RunVjJoin(&ctx, ds, options).ok());
}

TEST(VjTest, PartitionCountDoesNotChangeResults) {
  RankingDataset ds = SmallSkewedDataset(108);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = Truth(ds, 0.3);
  for (int partitions : {1, 3, 16, 64}) {
    VjOptions options;
    options.theta = 0.3;
    options.num_partitions = partitions;
    auto result = RunVjJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), expected) << partitions;
  }
}

TEST(VjTest, StatsArePopulated) {
  RankingDataset ds = SmallSkewedDataset(109);
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 0.2;
  auto result = RunVjJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates, 0u);
  EXPECT_GT(result->stats.verified, 0u);
  EXPECT_EQ(result->stats.result_pairs, result->pairs.size());
  EXPECT_GT(result->stats.total_seconds, 0.0);
  EXPECT_GT(result->stats.ordering_seconds, 0.0);
  EXPECT_GT(result->stats.joining_seconds, 0.0);
}

TEST(VjTest, DuplicateContentRankingsAllPair) {
  // Identical rankings (distance 0) must each appear in the result.
  RankingDataset ds;
  ds.k = 5;
  ds.rankings = {
      Ranking(0, {1, 2, 3, 4, 5}),
      Ranking(1, {1, 2, 3, 4, 5}),
      Ranking(2, {1, 2, 3, 4, 5}),
  };
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 0.05;
  auto result = RunVjJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs.size(), 3u);  // all C(3,2) pairs
}

TEST(VjTest, OrderingRunsWithoutAShuffle) {
  // The item count is one narrow stage of per-partition tables: a job
  // runs vj/itemFrequency and vj/canonicalize, then the join's shuffle
  // write and read, and the group join. Parallelize records no stage.
  testutil::PinnedEnv env;
  minispark::Context ctx(TestCluster());
  VjOptions options;
  options.theta = 0.3;
  auto result = RunVjJoin(&ctx, SmallSkewedDataset(40), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.metrics().NumStages(), 5u);
  int counts = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    EXPECT_EQ(stage.name.find("vj/itemFrequency/shuffle"), std::string::npos)
        << stage.name;
    counts += stage.name == "vj/itemFrequency";
  }
  EXPECT_EQ(counts, 1);
}

}  // namespace
}  // namespace rankjoin

#include "jaccard/jaccard_join.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>

#include "common/random.h"
#include "jaccard/jaccard.h"
#include "join/local_join.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;

OrderedRanking AsSet(RankingId id, std::vector<ItemId> items) {
  return MakeOrdered(Ranking(id, std::move(items)), ItemOrder());
}

TEST(JaccardMathTest, OverlapByMerge) {
  OrderedRanking a = AsSet(0, {1, 5, 9, 3});
  OrderedRanking b = AsSet(1, {9, 2, 3, 7});
  EXPECT_EQ(SetOverlap(a, b), 2);
  EXPECT_EQ(SetOverlap(a, a), 4);
  OrderedRanking c = AsSet(2, {100, 200, 300, 400});
  EXPECT_EQ(SetOverlap(a, c), 0);
}

TEST(JaccardMathTest, DistanceFromOverlap) {
  // k = 4: identical -> 0; disjoint -> 1; overlap 2 -> 1 - 2/6 = 2/3.
  EXPECT_DOUBLE_EQ(JaccardDistanceFromOverlap(4, 4), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistanceFromOverlap(0, 4), 1.0);
  EXPECT_NEAR(JaccardDistanceFromOverlap(2, 4), 2.0 / 3.0, 1e-12);
}

TEST(JaccardMathTest, DistanceIgnoresOrder) {
  OrderedRanking a = AsSet(0, {1, 2, 3, 4});
  OrderedRanking b = AsSet(1, {4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(JaccardDistance(a, b), 0.0);
}

TEST(JaccardMathTest, TriangleInequality) {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 80;
  options.domain_size = 30;
  options.seed = 404;
  RankingDataset ds = GenerateDataset(options);
  auto ordered = MakeOrderedDataset(ds.rankings, ItemOrder());
  for (size_t a = 0; a < 40; ++a) {
    for (size_t b = 0; b < 40; ++b) {
      for (size_t c = 0; c < 40; c += 7) {
        EXPECT_LE(JaccardDistance(ordered[a], ordered[c]),
                  JaccardDistance(ordered[a], ordered[b]) +
                      JaccardDistance(ordered[b], ordered[c]) + 1e-12);
      }
    }
  }
}

TEST(JaccardMathTest, MinOverlapMatchesClosedForm) {
  // o_min = ceil(2k(1-theta) / (2-theta)).
  for (int k : {5, 10, 25}) {
    for (double theta : {0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
      const int o = JaccardMinOverlap(theta, k);
      const double closed = 2.0 * k * (1.0 - theta) / (2.0 - theta);
      EXPECT_EQ(o, static_cast<int>(std::ceil(closed - 1e-9)))
          << "k=" << k << " theta=" << theta;
      // Defining property: o qualifies, o-1 does not.
      EXPECT_TRUE(JaccardQualifies(o, k, theta));
      if (o > 0) {
        EXPECT_FALSE(JaccardQualifies(o - 1, k, theta));
      }
    }
  }
}

TEST(JaccardMathTest, UnitWeightPrefixIsTheOverlapPrefix) {
  // Under the raw threshold 2(k - o), o = JaccardMinOverlap, the
  // rank-weighted prefix of a Jaccard store holds k - o + 1 items: the
  // overlap prefix of set similarity joins.
  for (int k : {1, 2, 5, 10, 25, 40}) {
    const RankingDataset ds = SmallSkewedDataset(710, 20, k);
    const JoinStore store =
        JoinStore::Build(ds.store(), ItemOrder(), Distance::kJaccard);
    for (int step = 0; step < 100; ++step) {
      const double theta = step / 100.0;
      const int o = JaccardMinOverlap(theta, k);
      const uint32_t raw_theta = static_cast<uint32_t>(2 * (k - o));
      for (RowIndex row = 0; row < store.size(); ++row) {
        int posted = 0;
        ForEachPrefixRank(store, row, raw_theta, PrefixMode::kOverlap,
                          [&posted](uint16_t) { ++posted; });
        ASSERT_EQ(posted, k - o + 1) << "k " << k << " theta " << theta;
      }
    }
  }
}

TEST(JaccardBruteForceTest, SmallHandCase) {
  RankingDataset ds;
  ds.k = 4;
  ds.rankings = {
      Ranking(0, {1, 2, 3, 4}),
      Ranking(1, {4, 3, 2, 1}),   // same set -> distance 0
      Ranking(2, {1, 2, 3, 9}),   // overlap 3 -> 1 - 3/5 = 0.4
      Ranking(3, {7, 8, 10, 11}),  // disjoint from 0
  };
  JoinResult result = JaccardBruteForceJoin(ds, 0.4);
  std::set<ResultPair> pairs(result.pairs.begin(), result.pairs.end());
  EXPECT_EQ(pairs.size(), 3u);  // (0,1), (0,2), (1,2)
  EXPECT_TRUE(pairs.count({0, 1}));
  EXPECT_TRUE(pairs.count({0, 2}));
  EXPECT_TRUE(pairs.count({1, 2}));
}

std::set<ResultPair> JaccardTruth(const RankingDataset& ds, double theta) {
  return PairSet(JaccardBruteForceJoin(ds, theta).pairs);
}

/// Both Jaccard joins at every partition count in `partitions` return
/// exactly the brute-force pairs, each once; returns the pair count.
size_t ExpectBothJoinsExact(const RankingDataset& ds, double theta,
                            double theta_c,
                            std::initializer_list<int> partitions = {1, 7}) {
  const std::set<ResultPair> expected = JaccardTruth(ds, theta);
  minispark::Context ctx(TestCluster());
  for (int num_partitions : partitions) {
    JaccardJoinOptions options;
    options.theta = theta;
    options.theta_c = theta_c;
    options.num_partitions = num_partitions;
    auto vj = RunJaccardVjJoin(&ctx, ds, options);
    auto cl = RunJaccardClusterJoin(&ctx, ds, options);
    EXPECT_TRUE(vj.ok()) << vj.status();
    EXPECT_TRUE(cl.ok()) << cl.status();
    if (!vj.ok() || !cl.ok()) return 0;
    EXPECT_EQ(PairSet(vj->pairs), expected)
        << "vj k " << ds.k << " theta " << theta << " partitions "
        << num_partitions;
    EXPECT_EQ(PairSet(cl->pairs), expected)
        << "cl k " << ds.k << " theta " << theta << " theta_c " << theta_c
        << " partitions " << num_partitions;
  }
  return expected.size();
}

TEST(JaccardJoinTest, SingleItemSets) {
  // k = 1: only equal items qualify below theta = 1.
  const RankingDataset ds = SmallSkewedDataset(711, 200, 1);
  for (double theta : {0.0, 0.5, 0.9}) {
    EXPECT_GT(ExpectBothJoinsExact(ds, theta, 0.0), 0u);
  }
}

TEST(JaccardJoinTest, FortyItemSets) {
  // k = 40: the kernel's chunk count is known only at run time.
  const RankingDataset ds = SmallSkewedDataset(712, 150, 40);
  for (double theta : {0.3, 0.6}) {
    for (double theta_c : {0.0, 0.1}) {
      EXPECT_GT(ExpectBothJoinsExact(ds, theta, theta_c), 0u);
    }
  }
}

TEST(JaccardClusterJoinTest, IdenticalSetCliques) {
  // Cliques of 20 rankings over one item set each, in different orders:
  // with theta_c = 0 each clique's rankings are all centroids and
  // members of each other at distance 0, the dense case of the
  // expansion (DESIGN.md "Empirical findings").
  RankingDataset ds = SmallSkewedDataset(713, 100, 5);
  Rng rng(714);
  RankingId id = 1000;
  for (ItemId base : {7000u, 8000u, 8002u}) {
    std::vector<ItemId> items = {base, base + 1, base + 2, 3, 4};
    for (int copy = 0; copy < 20; ++copy) {
      rng.Shuffle(items);
      ds.rankings.emplace_back(id++, items);
    }
  }
  for (double theta : {0.0, 0.3, 0.5}) {
    EXPECT_GE(ExpectBothJoinsExact(ds, theta, 0.0), 3u * 20 * 19 / 2);
  }
}

TEST(JaccardJoinTest, ThresholdReachedWithEquality) {
  // k = 4, theta = 0.4: overlap 3 gives 1 - 3/5 = 0.4, so the pair
  // qualifies at equality, at raw distance 2 = 2(k - 3).
  RankingDataset ds;
  ds.k = 4;
  ds.rankings = {
      Ranking(0, {1, 2, 3, 4}),
      Ranking(1, {4, 3, 2, 9}),    // overlap 3 with 0
      Ranking(2, {1, 2, 10, 11}),  // overlap 2 with 0: 2/3 > 0.4
      Ranking(3, {9, 3, 2, 12}),   // overlap 3 with 1
      Ranking(4, {20, 21, 22, 23}),
  };
  EXPECT_EQ(JaccardMinOverlap(0.4, 4), 3);
  EXPECT_EQ(JaccardTruth(ds, 0.4),
            (std::set<ResultPair>{{0, 1}, {1, 3}}));
  for (double theta_c : {0.0, 0.1}) {
    ExpectBothJoinsExact(ds, 0.4, theta_c, {1, 3});
  }
}

TEST(JaccardVjJoinTest, MatchesBruteForceAcrossThetas) {
  RankingDataset ds = SmallSkewedDataset(700);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.2, 0.4, 0.6, 0.8}) {
    JaccardJoinOptions options;
    options.theta = theta;
    auto result = RunJaccardVjJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), JaccardTruth(ds, theta))
        << "theta " << theta;
  }
}

TEST(JaccardVjJoinTest, WithoutReorderingStillCorrect) {
  RankingDataset ds = SmallSkewedDataset(701);
  minispark::Context ctx(TestCluster());
  JaccardJoinOptions options;
  options.theta = 0.5;
  options.reorder_by_frequency = false;
  auto result = RunJaccardVjJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), JaccardTruth(ds, 0.5));
}

TEST(JaccardClusterJoinTest, MatchesBruteForceAcrossThetas) {
  RankingDataset ds = SmallSkewedDataset(702);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.2, 0.4, 0.6}) {
    JaccardJoinOptions options;
    options.theta = theta;
    options.theta_c = 0.1;
    auto result = RunJaccardClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), JaccardTruth(ds, theta))
        << "theta " << theta;
  }
}

TEST(JaccardClusterJoinTest, ThetaCVariants) {
  RankingDataset ds = SmallSkewedDataset(703);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = JaccardTruth(ds, 0.4);
  for (double theta_c : {0.0, 0.05, 0.2}) {
    JaccardJoinOptions options;
    options.theta = 0.4;
    options.theta_c = theta_c;
    auto result = RunJaccardClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), expected) << "theta_c " << theta_c;
  }
}

TEST(JaccardClusterJoinTest, SingletonOptimizationToggle) {
  RankingDataset ds = SmallSkewedDataset(704);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = JaccardTruth(ds, 0.5);
  for (bool opt : {true, false}) {
    JaccardJoinOptions options;
    options.theta = 0.5;
    options.theta_c = 0.1;
    options.singleton_optimization = opt;
    auto result = RunJaccardClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), expected) << opt;
  }
}

TEST(JaccardClusterJoinTest, TriangleShortcutToggle) {
  RankingDataset ds = SmallSkewedDataset(705);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = JaccardTruth(ds, 0.4);
  for (bool shortcut : {true, false}) {
    JaccardJoinOptions options;
    options.theta = 0.4;
    options.theta_c = 0.1;
    options.triangle_upper_shortcut = shortcut;
    auto result = RunJaccardClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), expected) << shortcut;
  }
}

TEST(JaccardJoinTest, RejectsBadParameters) {
  RankingDataset ds = SmallSkewedDataset(706, 20);
  minispark::Context ctx(TestCluster());
  JaccardJoinOptions options;
  options.theta = 1.0;
  EXPECT_FALSE(RunJaccardVjJoin(&ctx, ds, options).ok());
  options.theta = 0.5;
  options.theta_c = 0.6;  // theta_c > theta
  EXPECT_FALSE(RunJaccardClusterJoin(&ctx, ds, options).ok());
  options.theta = 0.8;
  options.theta_c = 0.2;  // theta + 2*theta_c > 1
  EXPECT_FALSE(RunJaccardClusterJoin(&ctx, ds, options).ok());
  // Below 1, but within JaccardQualifies' slack of it: disjoint sets
  // would qualify, and the raw threshold 2(k - 0) = 2k is refused.
  options.theta = 1.0 - 5e-10;
  options.theta_c = 0.0;
  EXPECT_EQ(RunJaccardVjJoin(&ctx, ds, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JaccardJoinTest, PartitionInvariance) {
  RankingDataset ds = SmallSkewedDataset(707, 200);
  minispark::Context ctx(TestCluster());
  std::set<ResultPair> expected = JaccardTruth(ds, 0.4);
  for (int partitions : {1, 4, 32}) {
    JaccardJoinOptions options;
    options.theta = 0.4;
    options.theta_c = 0.1;
    options.num_partitions = partitions;
    auto vj = RunJaccardVjJoin(&ctx, ds, options);
    auto cl = RunJaccardClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(vj.ok());
    ASSERT_TRUE(cl.ok());
    EXPECT_EQ(PairSet(vj->pairs), expected);
    EXPECT_EQ(PairSet(cl->pairs), expected);
  }
}

}  // namespace
}  // namespace rankjoin

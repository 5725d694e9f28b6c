#include "ranking/footrule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/random.h"
#include "data/generator.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

OrderedRanking Ordered(const Ranking& r) {
  return MakeOrdered(r, ItemOrder());
}

TEST(FootruleTest, PaperTable2Example) {
  // F(tau_1, tau_2) = 16 (Section 1.1; identical with 0-based ranks and
  // artificial rank l = k = 5).
  Ranking t1(1, {2, 5, 4, 3, 1});
  Ranking t2(2, {1, 4, 5, 9, 0});
  EXPECT_EQ(FootruleDistance(t1, t2), 16u);
}

TEST(FootruleTest, IdenticalRankingsHaveZeroDistance) {
  Ranking a(0, {3, 1, 4, 1 + 4, 9});
  Ranking b(1, {3, 1, 4, 5, 9});
  EXPECT_EQ(FootruleDistance(a, a), 0u);
  EXPECT_EQ(FootruleDistance(a, b), 0u);
}

TEST(FootruleTest, DisjointRankingsHitMaximum) {
  Ranking a(0, {0, 1, 2});
  Ranking b(1, {10, 11, 12});
  EXPECT_EQ(FootruleDistance(a, b), MaxFootrule(3));
  EXPECT_EQ(MaxFootrule(3), 12u);  // k*(k+1)
}

TEST(FootruleTest, SymmetricDistance) {
  Ranking a(0, {1, 2, 3, 4});
  Ranking b(1, {2, 1, 5, 6});
  EXPECT_EQ(FootruleDistance(a, b), FootruleDistance(b, a));
}

TEST(FootruleTest, AdjacentSwapCostsTwo) {
  Ranking a(0, {1, 2, 3});
  Ranking b(1, {2, 1, 3});
  EXPECT_EQ(FootruleDistance(a, b), 2u);
}

TEST(FootruleTest, OrderedOverloadMatchesPlain) {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 60;
  options.domain_size = 40;
  options.seed = 99;
  RankingDataset ds = GenerateDataset(options);
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(ds.rankings, ItemOrder());
  for (size_t i = 0; i < ds.rankings.size(); i += 3) {
    for (size_t j = i + 1; j < ds.rankings.size(); j += 5) {
      EXPECT_EQ(FootruleDistance(ds.rankings[i], ds.rankings[j]),
                FootruleDistance(ordered[i], ordered[j]));
    }
  }
}

TEST(FootruleTest, BoundedEarlyExit) {
  Ranking a(0, {0, 1, 2, 3, 4});
  Ranking b(1, {10, 11, 12, 13, 14});
  OrderedRanking oa = Ordered(a);
  OrderedRanking ob = Ordered(b);
  EXPECT_FALSE(FootruleDistanceBounded(oa, ob, 10).has_value());
  auto full = FootruleDistanceBounded(oa, ob, MaxFootrule(5));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, MaxFootrule(5));
}

TEST(FootruleTest, BoundedExactlyAtBound) {
  Ranking a(0, {1, 2, 3});
  Ranking b(1, {2, 1, 3});
  auto d = FootruleDistanceBounded(Ordered(a), Ordered(b), 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2u);
  EXPECT_FALSE(FootruleDistanceBounded(Ordered(a), Ordered(b), 1).has_value());
}

TEST(FootruleTest, TriangleInequalityOnRandomTriples) {
  // The top-k Footrule with l = k is an L1 embedding, so the triangle
  // inequality must hold exactly — the CL algorithm depends on it.
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 90;
  options.domain_size = 30;  // small domain -> plenty of overlap
  options.seed = 123;
  RankingDataset ds = GenerateDataset(options);
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(ds.rankings, ItemOrder());
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto& a = ordered[rng.Uniform(ordered.size())];
    const auto& b = ordered[rng.Uniform(ordered.size())];
    const auto& c = ordered[rng.Uniform(ordered.size())];
    EXPECT_LE(FootruleDistance(a, c),
              FootruleDistance(a, b) + FootruleDistance(b, c));
  }
}

TEST(FootruleTest, PositionFilterSoundOnRandomPairs) {
  // d >= 2 * max rank difference (missing -> rank k): verified here
  // empirically; the join algorithms prune with exactly this bound.
  GeneratorOptions options;
  options.k = 8;
  options.num_rankings = 80;
  options.domain_size = 25;
  options.seed = 321;
  RankingDataset ds = GenerateDataset(options);
  for (size_t i = 0; i < ds.rankings.size(); ++i) {
    for (size_t j = i + 1; j < ds.rankings.size(); ++j) {
      const Ranking& a = ds.rankings[i];
      const Ranking& b = ds.rankings[j];
      const uint32_t d = FootruleDistance(a, b);
      uint32_t max_diff = 0;
      for (int r = 0; r < a.k(); ++r) {
        int rb = b.RankOf(a.ItemAt(r));
        if (rb < 0) rb = a.k();
        max_diff = std::max(max_diff,
                            static_cast<uint32_t>(std::abs(r - rb)));
        int ra = a.RankOf(b.ItemAt(r));
        if (ra < 0) ra = a.k();
        max_diff = std::max(max_diff,
                            static_cast<uint32_t>(std::abs(ra - r)));
      }
      EXPECT_GE(d, 2 * max_diff) << a.ToString() << " vs " << b.ToString();
      // And the filter API agrees: pairs within theta pass the filter.
      EXPECT_TRUE(PositionFilterPasses(0, static_cast<int>(max_diff), d));
    }
  }
}

TEST(ThresholdTest, RawThresholdRounding) {
  // 0.3 * 110 must round to 33, not 32 (binary representation slop).
  EXPECT_EQ(RawThreshold(0.3, 10), 33u);
  EXPECT_EQ(RawThreshold(0.1, 10), 11u);
  EXPECT_EQ(RawThreshold(0.0, 10), 0u);
  EXPECT_EQ(RawThreshold(1.0, 10), 110u);
}

TEST(ThresholdTest, NormalizeRoundTrip) {
  EXPECT_DOUBLE_EQ(NormalizeDistance(55, 10), 0.5);
  EXPECT_DOUBLE_EQ(NormalizeDistance(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeDistance(MaxFootrule(25), 25), 1.0);
}

TEST(ThresholdTest, PositionFilterBoundary) {
  // raw_theta = 10: rank difference 5 passes (2*5 <= 10), 6 fails.
  EXPECT_TRUE(PositionFilterPasses(0, 5, 10));
  EXPECT_FALSE(PositionFilterPasses(0, 6, 10));
  EXPECT_TRUE(PositionFilterPasses(7, 7, 0));
}

TEST(ThresholdTest, PositionFilterCanFireIffSomeRankPairFails) {
  for (int k = 1; k <= 12; ++k) {
    for (uint32_t raw_theta = 0; raw_theta <= MaxFootrule(k); ++raw_theta) {
      bool some_fails = false;
      for (int r = 0; r < k; ++r) {
        for (int s = 0; s < k; ++s) {
          some_fails |= !PositionFilterPasses(r, s, raw_theta);
        }
      }
      EXPECT_EQ(PositionFilterCanFire(k, raw_theta), some_fails)
          << "k " << k << " raw_theta " << raw_theta;
    }
  }
}

}  // namespace
}  // namespace rankjoin

#include "data/generator.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

TEST(GeneratorTest, ProducesRequestedShape) {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 500;
  options.domain_size = 300;
  RankingDataset ds = GenerateDataset(options);
  EXPECT_EQ(ds.k, 10);
  EXPECT_EQ(ds.size(), 500u);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(GeneratorTest, IdsAreDenseAndOrdered) {
  GeneratorOptions options;
  options.num_rankings = 100;
  RankingDataset ds = GenerateDataset(options);
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.rankings[i].id(), static_cast<RankingId>(i));
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions options;
  options.num_rankings = 200;
  options.seed = 77;
  RankingDataset a = GenerateDataset(options);
  RankingDataset b = GenerateDataset(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rankings[i], b.rankings[i]);
  }
}

TEST(GeneratorTest, SeedChangesData) {
  GeneratorOptions options;
  options.num_rankings = 50;
  options.seed = 1;
  RankingDataset a = GenerateDataset(options);
  options.seed = 2;
  RankingDataset b = GenerateDataset(options);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    differing += !(a.rankings[i] == b.rankings[i]);
  }
  EXPECT_GT(differing, 40);
}

TEST(GeneratorTest, ItemsWithinDomain) {
  GeneratorOptions options;
  options.num_rankings = 300;
  options.domain_size = 64;
  options.k = 8;
  RankingDataset ds = GenerateDataset(options);
  for (const Ranking& r : ds.rankings) {
    for (ItemId item : r.items()) EXPECT_LT(item, 64u);
  }
}

TEST(GeneratorTest, SkewMakesLowIdsFrequent) {
  GeneratorOptions options;
  options.num_rankings = 2000;
  options.domain_size = 500;
  options.zipf_skew = 1.0;
  options.near_duplicate_rate = 0.0;
  RankingDataset ds = GenerateDataset(options);
  const ItemCounts freq = CountItemFrequencies(ds.rankings);
  auto count_of = [&freq](ItemId item) {
    for (const auto& [id, count] : freq) {
      if (id == item) return count;
    }
    return 0u;
  };
  // Item 0 (Zipf rank 1) should appear far more often than item 400.
  EXPECT_GT(count_of(0), 20 * std::max(count_of(400), 1u));
}

TEST(GeneratorTest, NearDuplicatesCreateClosePairs) {
  GeneratorOptions base;
  base.num_rankings = 400;
  base.domain_size = 5000;  // large domain: random pairs are far apart
  base.near_duplicate_rate = 0.0;
  base.seed = 5;
  RankingDataset without = GenerateDataset(base);

  GeneratorOptions with_dups = base;
  with_dups.near_duplicate_rate = 0.4;
  RankingDataset with = GenerateDataset(with_dups);

  auto count_close = [](const RankingDataset& ds) {
    int close = 0;
    const uint32_t bound = RawThreshold(0.1, ds.k);
    for (size_t i = 0; i < ds.size(); ++i) {
      for (size_t j = i + 1; j < ds.size(); ++j) {
        close += FootruleDistance(ds.rankings[i], ds.rankings[j]) <= bound;
      }
    }
    return close;
  };
  EXPECT_GT(count_close(with), count_close(without));
}

TEST(PerturbRankingTest, StaysValidAndClose) {
  Rng rng(11);
  Ranking base(0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (int trial = 0; trial < 50; ++trial) {
    Ranking p = PerturbRanking(base, 99, 1000, 1, rng);
    EXPECT_EQ(p.id(), 99u);
    EXPECT_EQ(p.k(), base.k());
    EXPECT_TRUE(p.IsValid());
    // One op changes the distance by at most 2*k (an item replacement
    // displaces at most every rank by... bounded by the max distance of
    // a single-item change).
    EXPECT_LE(FootruleDistance(base, p), 2u * 10u);
  }
}

TEST(PerturbRankingTest, ZeroOpsIsIdentity) {
  Rng rng(12);
  Ranking base(0, {4, 5, 6});
  Ranking p = PerturbRanking(base, 1, 100, 0, rng);
  EXPECT_EQ(p.items(), base.items());
}

TEST(PresetOptionsTest, ShapesMatchDocumentation) {
  EXPECT_EQ(DblpLikeOptions().k, 10);
  EXPECT_EQ(OrkuLikeOptions().k, 10);
  EXPECT_EQ(OrkuLikeK25Options().k, 25);
  EXPECT_GT(OrkuLikeOptions().num_rankings, DblpLikeOptions().num_rankings);
}

}  // namespace
}  // namespace rankjoin

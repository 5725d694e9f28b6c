#include "join/estimate.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/generator.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

TEST(EstimateTest, UniformCaseClosedForm) {
  // s = 0: every item has frequency 1/v, so E[len] = n / v.
  EXPECT_NEAR(EstimatePostingListLength(1000, 0.0, 100), 10.0, 1e-9);
}

TEST(EstimateTest, SkewIncreasesExpectedLength) {
  const double flat = EstimatePostingListLength(1000, 0.0, 100);
  const double skewed = EstimatePostingListLength(1000, 1.0, 100);
  EXPECT_GT(skewed, flat);
}

TEST(EstimateTest, MonotoneInN) {
  EXPECT_LT(EstimatePostingListLength(100, 0.8, 50),
            EstimatePostingListLength(1000, 0.8, 50));
}

TEST(EstimateTest, MeasuredLengthsMatchIndexSize) {
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 500;
  options.domain_size = 400;
  options.seed = 5;
  RankingDataset ds = GenerateDataset(options);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  const int prefix = 4;
  auto lengths = MeasurePostingListLengths(ds.store().Views(), prefix, &order);
  const size_t total =
      std::accumulate(lengths.begin(), lengths.end(), size_t{0});
  EXPECT_EQ(total, ds.size() * prefix);  // every prefix entry indexed once
  EXPECT_TRUE(std::is_sorted(lengths.rbegin(), lengths.rend()));
}

TEST(EstimateTest, PredictsOrderOfMagnitudeOnZipfData) {
  // Generate strongly skewed data WITHOUT frequency reordering, so the
  // full-k inverted index follows the generator's Zipf model and Eq. 4
  // should land within a small factor of the true average hit length.
  GeneratorOptions options;
  options.k = 10;
  options.num_rankings = 2000;
  options.domain_size = 1000;
  options.zipf_skew = 0.8;
  options.near_duplicate_rate = 0.0;
  options.seed = 6;
  RankingDataset ds = GenerateDataset(options);
  auto lengths = MeasurePostingListLengths(ds.store().Views(), options.k);

  // Average list length weighted by list length = sum(len^2) / sum(len):
  // the expected length of the list a random token occurrence hits.
  double sum = 0;
  double sum_sq = 0;
  for (size_t len : lengths) {
    sum += static_cast<double>(len);
    sum_sq += static_cast<double>(len) * static_cast<double>(len);
  }
  const double measured = sum_sq / sum;
  const double estimated = EstimatePostingListLength(
      ds.size() * static_cast<size_t>(options.k), options.zipf_skew,
      options.domain_size);
  EXPECT_GT(estimated, measured / 4);
  EXPECT_LT(estimated, measured * 4);
}

TEST(SuggestDeltaTest, ScalesWithHeadroom) {
  const uint64_t d1 = SuggestDelta(10000, 0.9, 500, 2.0);
  const uint64_t d2 = SuggestDelta(10000, 0.9, 500, 4.0);
  EXPECT_GT(d2, d1);
  EXPECT_GE(d1, 1u);
}

TEST(SuggestDeltaTest, NeverZero) {
  EXPECT_GE(SuggestDelta(1, 0.0, 1000, 1.0), 1u);
}

}  // namespace
}  // namespace rankjoin

#include "search/range_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "ranking/footrule.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

/// Linear-scan ground truth for a range query.
std::set<RankingId> ScanTruth(const RankingDataset& ds, const Ranking& q,
                              double theta) {
  const uint32_t raw = RawThreshold(theta, ds.k);
  std::set<RankingId> out;
  for (const Ranking& r : ds.rankings) {
    if (r.id() == q.id()) continue;
    if (FootruleDistance(q, r) <= raw) out.insert(r.id());
  }
  return out;
}

std::set<RankingId> AsSet(const std::vector<RankingId>& ids) {
  return std::set<RankingId>(ids.begin(), ids.end());
}

constexpr ItemId kMaxItem = 0xFFFFFFFFu;

bool Contains(const std::vector<ItemId>& items, ItemId item) {
  return std::find(items.begin(), items.end(), item) != items.end();
}

/// A skewed dataset in which item 1 is renamed 0xFFFFFFFF, so the items
/// 0 and 0xFFFFFFFF both occur: 0 is also the value of every pad lane.
RankingDataset ExtremeItemDataset(size_t n, int k) {
  RankingDataset ds = testutil::SmallSkewedDataset(900 + k, n, k);
  for (Ranking& r : ds.rankings) {
    std::vector<ItemId> items = r.items();
    std::replace(items.begin(), items.end(), ItemId{1}, kMaxItem);
    r = Ranking(r.id(), std::move(items));
  }
  return ds;
}

/// Every 7th ranking of `ds` (answered without itself), and each of them
/// again as an external query that holds the items 0 and 0xFFFFFFFF (put
/// at the bottom and the top rank where missing).
std::vector<Ranking> MixedQueries(const RankingDataset& ds) {
  std::vector<Ranking> queries;
  for (size_t i = 0; i < ds.size(); i += 7) {
    const Ranking& r = ds.rankings[i];
    queries.push_back(r);
    std::vector<ItemId> items = r.items();
    if (!Contains(items, 0)) items.back() = 0;
    if (!Contains(items, kMaxItem) && items.size() > 1) {
      items.front() = kMaxItem;
    }
    queries.emplace_back(r.id() + 1000000, std::move(items));
  }
  return queries;
}

class RangeSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = testutil::SmallSkewedDataset(1000, 500);
  }

  RankingDataset dataset_;
};

TEST_F(RangeSearchTest, PrefixIndexMatchesScan) {
  auto index = PrefixRangeIndex::Build(dataset_, 0.4);
  ASSERT_TRUE(index.ok()) << index.status();
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const Ranking& q = dataset_.rankings[rng.Uniform(dataset_.size())];
    for (double theta : {0.05, 0.2, 0.4}) {
      auto result = index->Query(q, theta);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(AsSet(*result), ScanTruth(dataset_, q, theta))
          << "query " << q.id() << " theta " << theta;
    }
  }
}

TEST_F(RangeSearchTest, PrefixIndexExternalQueries) {
  // Queries that are not part of the indexed dataset.
  auto index = PrefixRangeIndex::Build(dataset_, 0.3);
  ASSERT_TRUE(index.ok());
  GeneratorOptions options;
  options.k = dataset_.k;
  options.num_rankings = 20;
  options.domain_size = 300;
  options.seed = 1001;
  RankingDataset queries = GenerateDataset(options);
  for (const Ranking& raw_query : queries.rankings) {
    // Give external queries ids outside the dataset's range.
    Ranking q(raw_query.id() + 1000000, raw_query.items());
    auto result = index->Query(q, 0.3);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(AsSet(*result), ScanTruth(dataset_, q, 0.3));
  }
}

TEST_F(RangeSearchTest, PrefixIndexRejectsOverBudgetTheta) {
  auto index = PrefixRangeIndex::Build(dataset_, 0.2);
  ASSERT_TRUE(index.ok());
  auto result = index->Query(dataset_.rankings[0], 0.3);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RangeSearchTest, PrefixIndexRejectsWrongK) {
  auto index = PrefixRangeIndex::Build(dataset_, 0.3);
  ASSERT_TRUE(index.ok());
  Ranking bad(0, {1, 2, 3});
  EXPECT_FALSE(index->Query(bad, 0.2).ok());
}

TEST_F(RangeSearchTest, PrefixIndexStatsAccumulate) {
  auto index = PrefixRangeIndex::Build(dataset_, 0.3);
  ASSERT_TRUE(index.ok());
  JoinStats stats;
  auto result = index->Query(dataset_.rankings[0], 0.1, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.result_pairs, result->size());
}

TEST(RangeSearchWidthTest, PrefixIndexMatchesScanAtEveryWidth) {
  // k covers every unrolled kernel width and the run-time one past 32.
  for (int k : {1, 2, 4, 5, 10, 25, 33}) {
    const RankingDataset ds = ExtremeItemDataset(300, k);
    size_t with_zero = 0;
    size_t with_max = 0;
    for (const Ranking& r : ds.rankings) {
      with_zero += Contains(r.items(), 0);
      with_max += Contains(r.items(), kMaxItem);
    }
    EXPECT_GT(with_zero, 0u) << "k " << k;
    EXPECT_GT(with_max, 0u) << "k " << k;
    auto index = PrefixRangeIndex::Build(ds, 0.4);
    ASSERT_TRUE(index.ok()) << index.status();
    JoinStats stats;
    for (const Ranking& q : MixedQueries(ds)) {
      ASSERT_TRUE(q.IsValid());
      for (double theta : {0.0, 0.05, 0.2, 0.4}) {
        auto result = index->Query(q, theta, &stats);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(AsSet(*result), ScanTruth(ds, q, theta))
            << "k " << k << " query " << q.ToString() << " theta " << theta;
      }
    }
    EXPECT_GT(stats.result_pairs, 0u) << "k " << k;
    // Past k = 2 some shared prefix item sits too far apart in rank.
    if (k > 2) {
      EXPECT_GT(stats.position_filtered, 0u) << "k " << k;
    }
  }
}

TEST_F(RangeSearchTest, PrefixIndexCountersPinned) {
  // Summed over a fixed query set. The values come from the merge-join
  // verification, independent of the lane kernel, so any change to how
  // the lists are walked or the candidates marked shows here.
  auto index = PrefixRangeIndex::Build(dataset_, 0.4);
  ASSERT_TRUE(index.ok());
  JoinStats stats;
  for (const Ranking& q : MixedQueries(dataset_)) {
    for (double theta : {0.05, 0.2, 0.4}) {
      ASSERT_TRUE(index->Query(q, theta, &stats).ok());
    }
  }
  EXPECT_EQ(stats.candidates, 27415u);
  EXPECT_EQ(stats.position_filtered, 674u);
  // 26525 candidates reach the distance decision; the signature bound
  // rules out the rest of them before the kernel.
  EXPECT_EQ(stats.signature_filtered + stats.verified, 26525u);
  EXPECT_EQ(stats.verified, 5005u);
  EXPECT_EQ(stats.result_pairs, 288u);
}

TEST_F(RangeSearchTest, CoarseIndexCountersPinned) {
  auto index = CoarseRangeIndex::Build(dataset_, 16);
  ASSERT_TRUE(index.ok());
  JoinStats stats;
  for (const Ranking& q : MixedQueries(dataset_)) {
    for (double theta : {0.05, 0.2, 0.4}) {
      ASSERT_TRUE(index->Query(q, theta, &stats).ok());
    }
  }
  EXPECT_EQ(stats.candidates, 177761u);
  EXPECT_EQ(stats.triangle_filtered, 83187u);
  EXPECT_EQ(stats.emitted_unverified, 30u);
  // Pivot distances stay exact; only members meet the signature bound.
  EXPECT_EQ(stats.signature_filtered + stats.verified, 139479u);
  EXPECT_EQ(stats.verified, 13355u);
  EXPECT_EQ(stats.result_pairs, 288u);
}

TEST_F(RangeSearchTest, QueriesRejectRepeatedItems) {
  const Ranking repeated(5, std::vector<ItemId>(10, 7));
  auto prefix_index = PrefixRangeIndex::Build(dataset_, 0.3);
  auto coarse_index = CoarseRangeIndex::Build(dataset_, 8);
  ASSERT_TRUE(prefix_index.ok());
  ASSERT_TRUE(coarse_index.ok());
  EXPECT_EQ(prefix_index->Query(repeated, 0.2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coarse_index->Query(repeated, 0.2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RangeSearchTest, ConcurrentQueriesMatchSequential) {
  auto index = PrefixRangeIndex::Build(dataset_, 0.3);
  ASSERT_TRUE(index.ok());
  const std::vector<Ranking> queries = MixedQueries(dataset_);
  std::vector<std::vector<RankingId>> expected;
  expected.reserve(queries.size());
  for (const Ranking& q : queries) expected.push_back(*index->Query(q, 0.3));

  std::vector<std::vector<std::vector<RankingId>>> answers(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < answers.size(); ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so the threads run
      // different queries on the one index at the same time.
      answers[t].resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t j = (i + t * 13) % queries.size();
        answers[t][j] = *index->Query(queries[j], 0.3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < answers.size(); ++t) {
    EXPECT_EQ(answers[t], expected) << "thread " << t;
  }
}

TEST(RangeSearchMarksTest, OneThreadAlternatesIndexSizes) {
  // The candidate marks are per thread and sized by the largest index the
  // thread has queried; stamps left by one index must not leak into the
  // next query on the other.
  const RankingDataset small = testutil::SmallSkewedDataset(31, 1000);
  const RankingDataset large = testutil::SmallSkewedDataset(32, 20000);
  auto small_index = PrefixRangeIndex::Build(small, 0.2);
  auto large_index = PrefixRangeIndex::Build(large, 0.2);
  ASSERT_TRUE(small_index.ok());
  ASSERT_TRUE(large_index.ok());
  std::thread worker([&] {
    for (size_t i = 0; i < 12; ++i) {
      const bool on_large = i % 2 == 1;
      const RankingDataset& ds = on_large ? large : small;
      const PrefixRangeIndex& index = on_large ? *large_index : *small_index;
      const Ranking& q = ds.rankings[(i * 97) % small.size()];
      auto result = index.Query(q, 0.2);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(AsSet(*result), ScanTruth(ds, q, 0.2)) << "query " << i;
    }
  });
  worker.join();
}

TEST_F(RangeSearchTest, CoarseIndexMatchesScan) {
  for (int pivots : {1, 8, 64}) {
    auto index = CoarseRangeIndex::Build(dataset_, pivots);
    ASSERT_TRUE(index.ok()) << index.status();
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
      const Ranking& q = dataset_.rankings[rng.Uniform(dataset_.size())];
      for (double theta : {0.05, 0.3, 0.6}) {
        auto result = index->Query(q, theta);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(AsSet(*result), ScanTruth(dataset_, q, theta))
            << "pivots " << pivots << " theta " << theta;
      }
    }
  }
}

TEST_F(RangeSearchTest, CoarseIndexPrunes) {
  auto index = CoarseRangeIndex::Build(dataset_, 32);
  ASSERT_TRUE(index.ok());
  JoinStats stats;
  auto result = index->Query(dataset_.rankings[0], 0.05, &stats);
  ASSERT_TRUE(result.ok());
  // At a tiny threshold, the triangle filters must remove most of the
  // dataset without verification.
  EXPECT_GT(stats.triangle_filtered, dataset_.size() / 2);
  EXPECT_LT(stats.verified, dataset_.size());
}

TEST_F(RangeSearchTest, CoarseIndexMorePivotsThanPoints) {
  RankingDataset tiny;
  tiny.k = 3;
  tiny.rankings = {Ranking(0, {1, 2, 3}), Ranking(1, {2, 3, 4})};
  auto index = CoarseRangeIndex::Build(tiny, 50);
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index->num_pivots(), 2);
  auto result = index->Query(tiny.rankings[0], 0.5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsSet(*result), ScanTruth(tiny, tiny.rankings[0], 0.5));
}

TEST_F(RangeSearchTest, EmptyDataset) {
  RankingDataset empty;
  empty.k = 5;
  auto prefix_index = PrefixRangeIndex::Build(empty, 0.3);
  ASSERT_TRUE(prefix_index.ok());
  Ranking q(0, {1, 2, 3, 4, 5});
  auto r1 = prefix_index->Query(q, 0.2);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());

  auto coarse_index = CoarseRangeIndex::Build(empty, 4);
  ASSERT_TRUE(coarse_index.ok());
  auto r2 = coarse_index->Query(q, 0.2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST_F(RangeSearchTest, IndicesAgreeWithEachOther) {
  auto prefix_index = PrefixRangeIndex::Build(dataset_, 0.4);
  auto coarse_index = CoarseRangeIndex::Build(dataset_, 16);
  ASSERT_TRUE(prefix_index.ok());
  ASSERT_TRUE(coarse_index.ok());
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Ranking& q = dataset_.rankings[rng.Uniform(dataset_.size())];
    auto a = prefix_index->Query(q, 0.25);
    auto b = coarse_index->Query(q, 0.25);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(AsSet(*a), AsSet(*b));
  }
}

}  // namespace
}  // namespace rankjoin

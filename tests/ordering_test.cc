// The ordering phase (OrderDataset): its distributed count, broadcast
// order and per-partition store blocks must give the store the driver
// builds on one thread, row by row, and canonical orders that follow the
// paper's rule (ascending frequency, ties by item id).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "data/generator.h"
#include "join/vj.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PinnedEnv;
using testutil::TestCluster;

/// Every part of two stores, row by row: ids, padded rows, canonical
/// ranks, signatures and the id -> row lookup.
::testing::AssertionResult SameStore(const JoinStore& got,
                                     const JoinStore& want) {
  if (got.size() != want.size() || got.k() != want.k() ||
      got.kernel().stride() != want.kernel().stride() ||
      got.kernel().max_distance() != want.kernel().max_distance()) {
    return ::testing::AssertionFailure()
           << "shape differs: " << got.size() << " rows of k " << got.k()
           << " vs " << want.size() << " rows of k " << want.k();
  }
  const int stride = want.kernel().stride();
  for (RowIndex row = 0; row < want.size(); ++row) {
    const auto fail = [row](const char* what) {
      return ::testing::AssertionFailure() << what << " differ at row " << row;
    };
    if (got.id(row) != want.id(row)) return fail("ids");
    if (!std::equal(got.items(row), got.items(row) + stride,
                    want.items(row))) {
      return fail("padded rows");
    }
    if (!std::equal(got.canonical(row), got.canonical(row) + want.k(),
                    want.canonical(row))) {
      return fail("canonical ranks");
    }
    if (got.signature(row).words[0] != want.signature(row).words[0] ||
        got.signature(row).words[1] != want.signature(row).words[1]) {
      return fail("signatures");
    }
    if (got.RowOf(want.id(row)) != row) return fail("id -> row lookups");
  }
  return ::testing::AssertionSuccess();
}

/// The canonical ranks of every row by the rule itself, from a std::map
/// of item counts: ascending count (all zero without reordering), then
/// item id.
::testing::AssertionResult FollowsTheRule(const JoinStore& store,
                                          const FlatRankings& flat,
                                          bool reorder) {
  std::map<ItemId, uint32_t> counts;
  const size_t k = static_cast<size_t>(flat.k());
  for (size_t i = 0; i < flat.size() * k; ++i) ++counts[flat.items()[i]];
  for (RowIndex row = 0; row < flat.size(); ++row) {
    const ItemId* items = flat.items() + row * k;
    std::vector<uint16_t> ranks(k);
    for (size_t r = 0; r < k; ++r) ranks[r] = static_cast<uint16_t>(r);
    std::sort(ranks.begin(), ranks.end(), [&](uint16_t a, uint16_t b) {
      const uint32_t ca = reorder ? counts[items[a]] : 0;
      const uint32_t cb = reorder ? counts[items[b]] : 0;
      return std::tie(ca, items[a], a) < std::tie(cb, items[b], b);
    });
    if (!std::equal(ranks.begin(), ranks.end(), store.canonical(row))) {
      return ::testing::AssertionFailure()
             << "canonical ranks break the rule at row " << row;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Orders `dataset` as the joins do and checks the store against the
/// single-threaded build and against the rule.
void CheckOrdering(const RankingDataset& dataset, int partitions,
                   bool reorder,
                   Distance distance = Distance::kFootrule) {
  SCOPED_TRACE(::testing::Message()
               << dataset.size() << " rankings of k " << dataset.k << ", "
               << partitions << " partitions, reorder " << reorder);
  PinnedEnv env;
  minispark::Context ctx(TestCluster());
  const JoinStore got =
      internal::OrderDataset(&ctx, dataset, reorder, partitions, distance);
  const FlatRankings& flat = dataset.store();
  const ItemOrder order = reorder ? ItemOrder::FromFrequencies(
                                        CountItemFrequencies(flat))
                                  : ItemOrder();
  EXPECT_TRUE(SameStore(got, JoinStore::Build(flat, order, distance)));
  EXPECT_TRUE(FollowsTheRule(got, flat, reorder));
}

RankingDataset DblpLike(size_t n) {
  GeneratorOptions options = DblpLikeOptions();
  options.num_rankings = n;
  return GenerateDataset(options);
}

TEST(OrderDatasetTest, DblpLikeAtEveryPartitionCount) {
  const RankingDataset dataset = DblpLike(3000);
  for (int partitions : {1, 7, 64}) {
    CheckOrdering(dataset, partitions, /*reorder=*/true);
  }
}

TEST(OrderDatasetTest, WithoutReorderingKeepsTheIdOrder) {
  const RankingDataset dataset = DblpLike(1000);
  for (int partitions : {1, 7}) {
    CheckOrdering(dataset, partitions, /*reorder=*/false);
  }
}

TEST(OrderDatasetTest, MorePartitionsThanRankings) {
  CheckOrdering(testutil::SmallSkewedDataset(31, 5), 16, /*reorder=*/true);
  CheckOrdering(testutil::SmallSkewedDataset(32, 1), 3, /*reorder=*/true);
}

TEST(OrderDatasetTest, IdsNearTwoToThe32AmongSmallIds) {
  // Ranking ids and item ids 0xFFFFFFFF and 0xFFFFFFFE next to small
  // ones: every table is sized by its entries, and the sparse shapes
  // must order exactly as the dense ones.
  RankingDataset dataset;
  dataset.k = 4;
  dataset.rankings = {
      Ranking(0xFFFFFFFFu, {0xFFFFFFFFu, 1, 2, 3}),
      Ranking(3, {0xFFFFFFFEu, 0xFFFFFFFFu, 2, 7}),
      Ranking(0xFFFFFFFEu, {5, 0xFFFFFFFFu, 0, 1}),
      Ranking(0, {1, 2, 3, 4}),
      Ranking(9, {0xFFFFFFFEu, 4, 3, 0}),
      Ranking(12, {6, 7, 0xFFFFFFFEu, 2}),
  };
  for (int partitions : {1, 2, 4}) {
    CheckOrdering(dataset, partitions, /*reorder=*/true);
    CheckOrdering(dataset, partitions, /*reorder=*/false);
  }
}

TEST(OrderDatasetTest, NarrowAndWideRows) {
  // k = 1; k = 40, which still takes the count-rank; and k = 56, whose
  // canonical order takes the sort of rows wider than kCountRankMaxK.
  static_assert(40 <= internal::kCountRankMaxK &&
                56 > internal::kCountRankMaxK);
  CheckOrdering(testutil::SmallSkewedDataset(33, 300, 1), 7, true);
  CheckOrdering(testutil::SmallSkewedDataset(34, 300, 40), 7, true);
  CheckOrdering(testutil::SmallSkewedDataset(35, 300, 40), 5, false);
  CheckOrdering(testutil::SmallSkewedDataset(37, 300, 56), 7, true);
  CheckOrdering(testutil::SmallSkewedDataset(38, 300, 56), 5, false);
}

TEST(OrderDatasetTest, JaccardStore) {
  CheckOrdering(testutil::SmallSkewedDataset(36, 400), 7, true,
                Distance::kJaccard);
}

}  // namespace
}  // namespace rankjoin

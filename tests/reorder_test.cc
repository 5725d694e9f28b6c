#include "ranking/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace rankjoin {
namespace {

TEST(CountItemFrequenciesTest, CountsAcrossRankings) {
  std::vector<Ranking> rankings = {
      Ranking(0, {1, 2, 3}),
      Ranking(1, {2, 3, 4}),
      Ranking(2, {3, 4, 5}),
  };
  EXPECT_EQ(CountItemFrequencies(rankings),
            (ItemCounts{{1, 1}, {2, 2}, {3, 3}, {4, 2}, {5, 1}}));
}

TEST(ItemOrderTest, RarerItemsSortFirst) {
  const ItemCounts freq = {{10, 5}, {20, 1}, {30, 3}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  EXPECT_LT(order.PositionOf(20), order.PositionOf(30));
  EXPECT_LT(order.PositionOf(30), order.PositionOf(10));
}

TEST(ItemOrderTest, TiesBrokenByItemId) {
  const ItemCounts freq = {{7, 2}, {3, 2}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  EXPECT_LT(order.PositionOf(3), order.PositionOf(7));
}

TEST(ItemOrderTest, UnknownItemsSortBeforeKnown) {
  const ItemCounts freq = {{0, 1}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  // Item 999 was never counted: frequency 0, rarer than everything.
  EXPECT_LT(order.PositionOf(999), order.PositionOf(0));
}

TEST(CountItemsTest, DenseAndSparseTablesMatchAMap) {
  // Ids below 4 per occurrence count in a dense array, ids near 2^32 in
  // a sorted array; both give one entry per item, by id. Merging the
  // tables of a split column gives the count of the whole.
  Rng rng(5);
  for (uint32_t base : {0u, 0xFFFFF000u}) {
    std::vector<ItemId> items(3000);
    std::map<ItemId, uint32_t> expected;
    for (ItemId& item : items) {
      item = base + static_cast<ItemId>(rng.Uniform(base == 0 ? 900 : 4000));
      ++expected[item];
    }
    const ItemCounts whole = CountItems(items.data(), items.size());
    EXPECT_EQ(whole, ItemCounts(expected.begin(), expected.end()));
    const ItemCounts head = CountItems(items.data(), 1000);
    const ItemCounts tail = CountItems(items.data() + 1000, 2000);
    EXPECT_EQ(MergeItemCounts({head, tail}), whole);
    EXPECT_EQ(MergeItemCounts({tail, {}, head}), whole);
  }
  EXPECT_TRUE(CountItems(nullptr, 0).empty());
  EXPECT_TRUE(MergeItemCounts({}).empty());
}

TEST(ItemOrderTest, FlatTableGivesTheFrequencyPlaces) {
  // Dense ids take an array by id, ids near 2^32 an open-addressing
  // table. Either way a known id sits at 2^32 + its place by (count,
  // id), and an unknown id below, inside or above the known range keeps
  // its raw value.
  for (const bool sparse : {false, true}) {
    Rng rng(sparse ? 7 : 6);
    ItemCounts freq;
    for (uint32_t i = 0; i < 500; ++i) {
      const ItemId id = sparse ? 0xFFFFF000u - 6 * i : 10 + 2 * i;
      freq.push_back({id, 1 + static_cast<uint32_t>(rng.Uniform(20))});
    }
    ItemCounts by_place = freq;
    std::sort(by_place.begin(), by_place.end(),
              [](const auto& a, const auto& b) {
                return std::tie(a.second, a.first) <
                       std::tie(b.second, b.first);
              });
    const ItemOrder order = ItemOrder::FromFrequencies(freq);
    EXPECT_EQ(order.num_items(), 500u);
    for (size_t place = 0; place < by_place.size(); ++place) {
      EXPECT_EQ(order.PositionOf(by_place[place].first),
                (uint64_t{1} << 32) + place);
    }
    const std::vector<ItemId> unknown =
        sparse ? std::vector<ItemId>{0, 9, 0xFFFFF000u - 6 * 499 - 1,
                                     0xFFFFF000u - 3, 0xFFFFF001u,
                                     0xFFFFFFFFu}
               : std::vector<ItemId>{0, 9, 11, 507, 1009, 5000, 0xFFFFFFFFu};
    for (ItemId id : unknown) EXPECT_EQ(order.PositionOf(id), id) << id;
  }
}

TEST(CanonicalRanksTest, CountRankAndSortAgree) {
  // CanonicalRanks picks count-rank or a sort by k; both must give the
  // same ranks at every width either takes, with known items (placed by
  // frequency) and unknown ones (placed by id) mixed in one row.
  Rng rng(11);
  ItemCounts freq;
  for (ItemId id = 0; id < 200; id += 2) {
    freq.push_back({id, 1 + static_cast<uint32_t>(rng.Uniform(5))});
  }
  const ItemOrder order = ItemOrder::FromFrequencies(freq);
  for (int k = 1; k <= internal::kCountRankMaxWidth; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<ItemId> items;
      while (items.size() < static_cast<size_t>(k)) {
        const auto id = static_cast<ItemId>(rng.Uniform(300));
        if (std::find(items.begin(), items.end(), id) == items.end()) {
          items.push_back(id);
        }
      }
      std::vector<uint16_t> by_count(static_cast<size_t>(k));
      std::vector<uint16_t> by_sort(static_cast<size_t>(k));
      internal::CanonicalRanksByCount(items.data(), k, order,
                                      by_count.data());
      internal::CanonicalRanksBySort(items.data(), k, order, by_sort.data());
      ASSERT_EQ(by_count, by_sort) << "k = " << k;
      for (int t = 1; t < k; ++t) {
        ASSERT_LT(order.PositionOf(items[by_sort[t - 1]]),
                  order.PositionOf(items[by_sort[t]]))
            << "k = " << k;
      }
    }
  }
}

TEST(MakeOrderedTest, CanonicalSortedByFrequency) {
  // Frequencies: item 5 -> 3, item 7 -> 2, item 1 -> 1. Canonical order
  // of ranking 0 is therefore [1, 7, 5] (ascending frequency).
  std::vector<Ranking> rankings = {
      Ranking(0, {5, 1, 7}),
      Ranking(1, {5, 7, 2}),
      Ranking(2, {5, 3, 4}),
  };
  ItemOrder order = ItemOrder::FromFrequencies(CountItemFrequencies(rankings));
  OrderedRanking o = MakeOrdered(rankings[0], order);
  EXPECT_EQ(o.id, 0u);
  EXPECT_EQ(o.k, 3);
  EXPECT_EQ(o.canonical.front().item, 1u);  // unique item first
  EXPECT_EQ(o.canonical.back().item, 5u);   // most frequent last
}

TEST(MakeOrderedTest, OriginalRanksPreserved) {
  std::vector<Ranking> rankings = {Ranking(0, {5, 1, 7})};
  ItemOrder order = ItemOrder::FromFrequencies(CountItemFrequencies(rankings));
  OrderedRanking o = MakeOrdered(rankings[0], order);
  for (const ItemEntry& e : o.canonical) {
    EXPECT_EQ(rankings[0].ItemAt(e.rank), e.item);
  }
}

TEST(MakeOrderedTest, ByItemSortedByItemId) {
  std::vector<Ranking> rankings = {Ranking(0, {9, 4, 6, 1})};
  OrderedRanking o = MakeOrdered(rankings[0], ItemOrder());
  ASSERT_EQ(o.by_item.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      o.by_item.begin(), o.by_item.end(),
      [](const ItemEntry& a, const ItemEntry& b) { return a.item < b.item; }));
}

TEST(MakeOrderedDatasetTest, PreservesOrderAndSize) {
  std::vector<Ranking> rankings = {Ranking(3, {1, 2}), Ranking(9, {2, 3})};
  auto ordered = MakeOrderedDataset(rankings, ItemOrder());
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].id, 3u);
  EXPECT_EQ(ordered[1].id, 9u);
}

}  // namespace
}  // namespace rankjoin

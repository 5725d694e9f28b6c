#include "ranking/reorder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rankjoin {

namespace {

/// Sums `entries` (item, count) entries per item. for_each(fn) calls
/// fn(item, count) on every entry, and may run more than once. Under
/// DenseIdsFit the table is an array of counts by item; otherwise the
/// entries are sorted by item and each run of one item summed.
template <typename ForEach>
ItemCounts SumCounts(size_t entries, const ForEach& for_each) {
  ItemCounts out;
  if (entries == 0) return out;
  ItemId max_id = 0;
  for_each([&](ItemId item, uint32_t) { max_id = std::max(max_id, item); });
  if (DenseIdsFit(max_id, entries)) {
    std::vector<uint32_t> dense(static_cast<size_t>(max_id) + 1, 0);
    for_each([&](ItemId item, uint32_t count) { dense[item] += count; });
    for (size_t id = 0; id < dense.size(); ++id) {
      if (dense[id] != 0) out.push_back({static_cast<ItemId>(id), dense[id]});
    }
    return out;
  }
  out.reserve(entries);
  for_each([&](ItemId item, uint32_t count) { out.push_back({item, count}); });
  std::sort(out.begin(), out.end());
  size_t kept = 0;
  for (const auto& [item, count] : out) {
    if (kept > 0 && out[kept - 1].first == item) {
      out[kept - 1].second += count;
    } else {
      out[kept++] = {item, count};
    }
  }
  out.resize(kept);
  return out;
}

}  // namespace

ItemCounts CountItems(const ItemId* items, size_t n) {
  return SumCounts(n, [items, n](const auto& fn) {
    for (size_t i = 0; i < n; ++i) fn(items[i], 1);
  });
}

ItemCounts MergeItemCounts(const std::vector<ItemCounts>& tables) {
  size_t entries = 0;
  for (const ItemCounts& table : tables) entries += table.size();
  return SumCounts(entries, [&tables](const auto& fn) {
    for (const ItemCounts& table : tables) {
      for (const auto& [item, count] : table) fn(item, count);
    }
  });
}

ItemCounts CountItemFrequencies(const std::vector<Ranking>& rankings) {
  size_t entries = 0;
  for (const Ranking& r : rankings) entries += r.items().size();
  return SumCounts(entries, [&rankings](const auto& fn) {
    for (const Ranking& r : rankings) {
      for (ItemId item : r.items()) fn(item, 1);
    }
  });
}

ItemCounts CountItemFrequencies(const FlatRankings& rankings) {
  return CountItems(rankings.items(),
                    rankings.size() * static_cast<size_t>(rankings.k()));
}

ItemOrder ItemOrder::FromFrequencies(const ItemCounts& freq) {
  ItemCounts by_frequency = freq;
  std::sort(by_frequency.begin(), by_frequency.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  std::vector<ItemId> items;
  items.reserve(by_frequency.size());
  for (const auto& entry : by_frequency) items.push_back(entry.first);
  ItemOrder order;
  order.num_items_ = items.size();
  order.places_ = IdIndex(items.data(), items.size());
  return order;
}

namespace internal {

namespace {

/// A key holds the item's order position above its rank, so the keys of
/// a row are distinct and order as (position, rank); each position is
/// looked up once.
uint64_t CanonicalKey(const ItemId* items, int r, const ItemOrder& order) {
  return order.PositionOf(items[r]) << 16 | static_cast<uint64_t>(r);
}

}  // namespace

void CanonicalRanksByCount(const ItemId* items, int k,
                           const ItemOrder& order, uint16_t* ranks) {
  // A key's place is the number of smaller keys; the k^2 compares do not
  // branch.
  RANKJOIN_DCHECK(k <= kCountRankMaxWidth);
  uint64_t keys[kCountRankMaxWidth];
  for (int r = 0; r < k; ++r) keys[r] = CanonicalKey(items, r, order);
  for (int r = 0; r < k; ++r) {
    int place = 0;
    for (int s = 0; s < k; ++s) place += keys[s] < keys[r];
    ranks[place] = static_cast<uint16_t>(r);
  }
}

void CanonicalRanksBySort(const ItemId* items, int k, const ItemOrder& order,
                          uint16_t* ranks) {
  thread_local std::vector<uint64_t> keys;
  keys.resize(static_cast<size_t>(k));
  for (int r = 0; r < k; ++r) {
    keys[static_cast<size_t>(r)] = CanonicalKey(items, r, order);
  }
  std::sort(keys.begin(), keys.end());
  for (int t = 0; t < k; ++t) {
    ranks[t] = static_cast<uint16_t>(keys[static_cast<size_t>(t)] & 0xFFFF);
  }
}

}  // namespace internal

void CanonicalRanks(const ItemId* items, int k, const ItemOrder& order,
                    uint16_t* ranks) {
  if (k <= internal::kCountRankMaxK) {
    internal::CanonicalRanksByCount(items, k, order, ranks);
  } else {
    internal::CanonicalRanksBySort(items, k, order, ranks);
  }
}

namespace {

OrderedRanking MakeOrderedImpl(RankingId id, const ItemId* items, size_t k,
                               const ItemOrder& order) {
  OrderedRanking out;
  out.id = id;
  out.k = static_cast<uint16_t>(k);
  thread_local std::vector<uint16_t> ranks;
  ranks.resize(k);
  CanonicalRanks(items, static_cast<int>(k), order, ranks.data());
  out.canonical.reserve(k);
  for (uint16_t r : ranks) out.canonical.push_back(ItemEntry{items[r], r});
  out.by_item = out.canonical;
  std::sort(out.by_item.begin(), out.by_item.end(),
            [](const ItemEntry& a, const ItemEntry& b) {
              return a.item < b.item;
            });
  return out;
}

}  // namespace

OrderedRanking MakeOrdered(const Ranking& ranking, const ItemOrder& order) {
  return MakeOrderedImpl(ranking.id(), ranking.items().data(),
                         ranking.items().size(), order);
}

OrderedRanking MakeOrdered(const RankingView& view, const ItemOrder& order) {
  return MakeOrderedImpl(view.id, view.items, view.k, order);
}

std::vector<OrderedRanking> MakeOrderedDataset(
    const std::vector<Ranking>& rankings, const ItemOrder& order) {
  std::vector<OrderedRanking> out;
  out.reserve(rankings.size());
  for (const Ranking& r : rankings) out.push_back(MakeOrdered(r, order));
  return out;
}

std::vector<OrderedRanking> MakeOrderedDataset(const FlatRankings& rankings,
                                               const ItemOrder& order) {
  std::vector<OrderedRanking> out;
  out.reserve(rankings.size());
  for (size_t i = 0; i < rankings.size(); ++i) {
    out.push_back(MakeOrdered(rankings.view(i), order));
  }
  return out;
}

}  // namespace rankjoin

#ifndef RANKJOIN_RANKING_REORDER_H_
#define RANKJOIN_RANKING_REORDER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ranking/flat_rankings.h"
#include "ranking/id_index.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Item frequencies as (item, count) entries, one per distinct item,
/// sorted by item id.
using ItemCounts = std::vector<std::pair<ItemId, uint32_t>>;

/// Counts the `n` item ids at `items` into a flat table, sized by `n`
/// (DenseIdsFit): a dense array of counts, or else a sorted array of
/// (item, count) entries.
ItemCounts CountItems(const ItemId* items, size_t n);

/// Sums the count tables of a distributed count, whose entries repeat
/// items across tables, under the same sizing rule.
ItemCounts MergeItemCounts(const std::vector<ItemCounts>& tables);

/// Counts how many rankings each item appears in.
ItemCounts CountItemFrequencies(const std::vector<Ranking>& rankings);
ItemCounts CountItemFrequencies(const FlatRankings& rankings);

/// Global item statistics used to put rankings into the canonical order
/// (paper: items sorted by ascending frequency so rare items land in the
/// prefix). This is the broadcast variable of the VJ pipeline: a flat
/// item -> place table (IdIndex), sized by the item count.
class ItemOrder {
 public:
  ItemOrder() = default;

  /// Builds the order from item frequencies (one entry per item, in any
  /// order): ties broken by item id so the canonical order is total and
  /// deterministic.
  static ItemOrder FromFrequencies(const ItemCounts& freq);

  /// Canonical position of an item: smaller = rarer = earlier in every
  /// prefix. Known items sit at 2^32 + their place in the order. Items
  /// never seen during construction sort first (frequency 0): their
  /// position is their id, below every known item.
  uint64_t PositionOf(ItemId item) const {
    const uint32_t place = places_.Find(item);
    return place == IdIndex::kAbsent ? uint64_t{item}
                                     : (uint64_t{1} << 32) + place;
  }

  size_t num_items() const { return num_items_; }

 private:
  friend size_t ApproxSize(const ItemOrder& order);

  size_t num_items_ = 0;
  IdIndex places_;
};

/// The order's driver-side size, its whole table, so MS003 sees the
/// broadcast's real footprint (found by argument-dependent lookup in
/// minispark::Context::MakeBroadcast).
inline size_t ApproxSize(const ItemOrder& order) {
  return sizeof(ItemOrder) + order.places_.bytes();
}

/// Writes the canonical order of one ranking: the ranks of its k items
/// sorted by ascending order position, so the rarest item comes first.
/// The one canonical rule of the library; MakeOrdered and the join store
/// both use it.
void CanonicalRanks(const ItemId* items, int k, const ItemOrder& order,
                    uint16_t* ranks);

namespace internal {

/// The widest row CanonicalRanks orders by count-rank; wider rows sort.
/// BM_CanonicalRanksByCount and BM_CanonicalRanksBySort (micro_kernels)
/// time both on the same rows: count-rank won every run at widths up to
/// 48, and the two traded places at 56 and 64 (EXPERIMENTS.md "Ordering
/// without a shuffle").
inline constexpr int kCountRankMaxK = 48;
/// The widest row CanonicalRanksByCount takes (its key buffer), above
/// kCountRankMaxK so the benchmark can time it past the crossover.
inline constexpr int kCountRankMaxWidth = 64;

/// The two orderings CanonicalRanks picks between by k, with the same
/// output: count-rank (a row's k^2 key compares, for k <=
/// kCountRankMaxWidth) and std::sort of its k keys.
void CanonicalRanksByCount(const ItemId* items, int k, const ItemOrder& order,
                           uint16_t* ranks);
void CanonicalRanksBySort(const ItemId* items, int k, const ItemOrder& order,
                          uint16_t* ranks);

}  // namespace internal

/// Transforms one ranking into its join representation: entries carry the
/// original rank; `canonical` is sorted by the global item order and
/// `by_item` by item id (see OrderedRanking).
OrderedRanking MakeOrdered(const Ranking& ranking, const ItemOrder& order);
/// Same, reading straight out of a columnar store slice.
OrderedRanking MakeOrdered(const RankingView& view, const ItemOrder& order);

/// Convenience: orders a whole dataset on the driver (the oracles and
/// planner sampling; the distributed pipelines build a JoinStore through
/// minispark stages instead, and range search builds one directly).
std::vector<OrderedRanking> MakeOrderedDataset(
    const std::vector<Ranking>& rankings, const ItemOrder& order);
/// Same, straight off the columnar store (works for mmap-born datasets
/// whose Ranking vector is empty).
std::vector<OrderedRanking> MakeOrderedDataset(const FlatRankings& rankings,
                                               const ItemOrder& order);

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_REORDER_H_

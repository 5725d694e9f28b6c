#ifndef RANKJOIN_RANKING_REORDER_H_
#define RANKJOIN_RANKING_REORDER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ranking/flat_rankings.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Global item statistics used to put rankings into the canonical order
/// (paper: items sorted by ascending frequency so rare items land in the
/// prefix). This is the broadcast variable of the VJ pipeline.
class ItemOrder {
 public:
  ItemOrder() = default;

  /// Builds the order from item frequencies: ties broken by item id so
  /// the canonical order is total and deterministic.
  static ItemOrder FromFrequencies(
      const std::unordered_map<ItemId, uint32_t>& freq);

  /// Canonical position of an item: smaller = rarer = earlier in every
  /// prefix. Items never seen during construction sort first (frequency
  /// 0); they get position equal to their id's two's-complement order
  /// below all known items.
  uint64_t PositionOf(ItemId item) const;

  size_t num_items() const { return position_.size(); }

 private:
  std::unordered_map<ItemId, uint64_t> position_;
};

/// The order's driver-side size, the entries of its position table, so
/// MS003 sees the broadcast's real footprint (found by
/// argument-dependent lookup in minispark::Context::MakeBroadcast).
inline size_t ApproxSize(const ItemOrder& order) {
  return sizeof(ItemOrder) +
         order.num_items() * (sizeof(ItemId) + sizeof(uint64_t));
}

/// Counts how many rankings each item appears in.
std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const std::vector<Ranking>& rankings);
std::unordered_map<ItemId, uint32_t> CountItemFrequencies(
    const FlatRankings& rankings);

/// Writes the canonical order of one ranking: the ranks of its k items
/// sorted by ascending order position, so the rarest item comes first.
/// The one canonical rule of the library; MakeOrdered and the join store
/// both use it.
void CanonicalRanks(const ItemId* items, int k, const ItemOrder& order,
                    uint16_t* ranks);

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

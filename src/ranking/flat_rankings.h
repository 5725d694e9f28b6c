#ifndef RANKJOIN_RANKING_FLAT_RANKINGS_H_
#define RANKJOIN_RANKING_FLAT_RANKINGS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "minispark/serde.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// A non-owning view of one fixed-k ranking inside a FlatRankings store:
/// `items` points at k contiguous ItemIds in rank order. Trivially
/// copyable (16 bytes), so minispark's memcpy Serde applies — spilling a
/// view writes the 16-byte header only, never the column data. Like every
/// raw pointer under the in-process Serde contract (see
/// minispark/serde.h), the view is only meaningful while the owning
/// FlatRankings is alive.
struct RankingView {
  RankingId id = 0;
  uint32_t k = 0;
  const ItemId* items = nullptr;

  ItemId ItemAt(int r) const { return items[static_cast<size_t>(r)]; }

  /// Rank of `item`, or -1. O(k) linear scan, no allocation.
  int RankOf(ItemId item) const {
    for (uint32_t r = 0; r < k; ++r) {
      if (items[r] == item) return static_cast<int>(r);
    }
    return -1;
  }

  friend bool operator==(const RankingView& a, const RankingView& b) {
    if (a.id != b.id || a.k != b.k) return false;
    for (uint32_t r = 0; r < a.k; ++r) {
      if (a.items[r] != b.items[r]) return false;
    }
    return true;
  }
};

static_assert(std::is_trivially_copyable_v<RankingView>,
              "RankingView must stay POD so the memcpy Serde path applies");

/// The canonical in-memory representation of a fixed-k dataset: a
/// structure-of-arrays columnar store. Column `ids` holds one RankingId
/// per ranking; column `items` holds count*k ItemIds, ranking i occupying
/// the slice [i*k, (i+1)*k) in rank order. The columns either live in
/// owned vectors (built in memory) or point into external memory kept
/// alive by `owner` (the mmap-backed columnar file; see data/io.h).
class FlatRankings {
 public:
  FlatRankings() = default;

  /// Copies a vector<Ranking> into columnar form. All rankings must have
  /// length k (call Validate() to enforce).
  static FlatRankings FromRankings(int k, const std::vector<Ranking>& rankings);

  /// Wraps external column memory without copying; `owner` keeps the
  /// backing memory (e.g. an mmap region) alive for the store's lifetime.
  static FlatRankings Wrap(int k, size_t count, const RankingId* ids,
                           const ItemId* items,
                           std::shared_ptr<const void> owner);

  int k() const { return k_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  const RankingId* ids() const { return ids_; }
  const ItemId* items() const { return items_; }

  RankingView view(size_t i) const {
    return RankingView{ids_[i], static_cast<uint32_t>(k_),
                       items_ + i * static_cast<size_t>(k_)};
  }

  /// All views, in store order — the unit the pipelines parallelize.
  std::vector<RankingView> Views() const;

  /// Materializes ranking i as a heap-allocated Ranking.
  Ranking ToRanking(size_t i) const;

  /// Checks the distinct-items invariant for every ranking and that no
  /// ranking id repeats. O(count * k) with reusable scratch sets — no
  /// per-ranking allocation. The result is memoized so validation runs
  /// once per load, not once per copy.
  Status Validate() const;

  /// Incremental builder for an owned store.
  class Builder {
   public:
    explicit Builder(int k) : k_(k) {}

    void Reserve(size_t count);
    /// Appends one ranking; `items` must point at k ItemIds.
    void Append(RankingId id, const ItemId* items);
    size_t size() const { return ids_.size(); }
    FlatRankings Build() &&;

   private:
    int k_ = 0;
    std::vector<RankingId> ids_;
    std::vector<ItemId> items_;
  };

 private:
  int k_ = 0;
  size_t count_ = 0;
  const RankingId* ids_ = nullptr;
  const ItemId* items_ = nullptr;
  std::vector<RankingId> owned_ids_;
  std::vector<ItemId> owned_items_;
  std::shared_ptr<const void> owner_;
  // Memoized Validate() result: 0 = not yet run, 1 = valid, 2 = invalid.
  mutable int validated_ = 0;
  mutable Status validate_status_;
};

namespace internal {

/// A reusable membership probe over ItemIds: a generation-stamped
/// open-addressing set that is cleared in O(1) by bumping the generation,
/// so repeated k-sized distinctness checks allocate nothing after the
/// table reaches capacity. Not thread-safe; use one per thread
/// (thread_local in the callers).
class ScratchItemSet {
 public:
  /// Prepares the set for up to `expected` inserts and clears it.
  void Begin(size_t expected);
  /// Inserts `item`; returns false if it was already present.
  bool Insert(ItemId item);

 private:
  std::vector<ItemId> keys_;
  std::vector<uint32_t> stamps_;
  uint32_t generation_ = 0;
  size_t mask_ = 0;
};

/// True if the k items are pairwise distinct; uses a thread_local
/// ScratchItemSet so the check is allocation-free in steady state.
bool ItemsDistinct(const ItemId* items, size_t k);

/// InvalidArgument naming the first ranking id among id_of(0), ...,
/// id_of(count - 1) that an earlier one repeats; OK when all differ.
/// The joins identify a ranking by its id, so a repeated id would make
/// them report pairs of one id and lose the pairs of the other row.
template <typename IdOf>
Status CheckIdsUnique(size_t count, IdOf id_of) {
  ScratchItemSet seen;  // RankingId and ItemId are both 32-bit ids
  seen.Begin(count);
  for (size_t i = 0; i < count; ++i) {
    if (!seen.Insert(id_of(i))) {
      return Status::InvalidArgument("ranking id " +
                                     std::to_string(id_of(i)) +
                                     " appears more than once");
    }
  }
  return Status::OK();
}

}  // namespace internal

}  // namespace rankjoin

namespace rankjoin::minispark {

/// Zero-copy Serde for ranking views: a shuffled/spilled view encodes as
/// its 16-byte header (id, k, column-slice pointer) — the k item values
/// stay in the columnar store and are never re-encoded per record. This
/// rides the in-process Serde contract documented in minispark/serde.h
/// (raw pointers round-trip as values; spill files never outlive the
/// process), so the owning FlatRankings must stay alive for the duration
/// of the job — which the pipelines guarantee by holding the dataset on
/// the driver. Defined next to the type so every translation unit sees
/// the same specialization.
template <>
struct Serde<rankjoin::RankingView> {
  static size_t Size(const rankjoin::RankingView& /*v*/) {
    return sizeof(rankjoin::RankingView);
  }

  static void Write(const rankjoin::RankingView& v, std::string* out) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  static void Read(const char** p, const char* end,
                   rankjoin::RankingView* out) {
    RANKJOIN_CHECK(*p + sizeof(*out) <= end);
    std::memcpy(out, *p, sizeof(*out));
    *p += sizeof(*out);
  }
};

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_RANKING_FLAT_RANKINGS_H_

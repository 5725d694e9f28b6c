#ifndef RANKJOIN_RANKING_ID_INDEX_H_
#define RANKJOIN_RANKING_ID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rankjoin {

/// Whether a table indexed by every id up to `max_id` keeps within four
/// slots per entry for `entries` entries. It is the one sizing rule of
/// the flat id tables (item counts, the item order, a join store's
/// id -> row lookup): a table is sized by its entries, never by the
/// largest id alone, since an id near 2^32 once made a table ask for
/// ~34 GB (DESIGN.md "Join store").
inline bool DenseIdsFit(uint32_t max_id, size_t entries) {
  return max_id / 4 < entries;
}

/// The position of every id in an array of 32-bit ids, as a flat
/// table: an array indexed by id when DenseIdsFit, else open addressing
/// over at least twice as many slots as ids (Fibonacci hashing, linear
/// probing).
class IdIndex {
 public:
  static constexpr uint32_t kAbsent = ~uint32_t{0};

  IdIndex() = default;
  /// Indexes ids[0, n), n below kAbsent. An id that repeats maps to its
  /// last position (the callers reject repeated ranking ids with a
  /// Status, some after indexing a sample).
  IdIndex(const uint32_t* ids, size_t n);

  /// The position of `id`, or kAbsent.
  uint32_t Find(uint32_t id) const {
    if (!dense_.empty()) return id < dense_.size() ? dense_[id] : kAbsent;
    if (slots_.empty()) return kAbsent;
    const size_t mask = slots_.size() - 1;
    for (size_t s = SlotOf(id, mask); slots_[s].position != kAbsent;
         s = (s + 1) & mask) {
      if (slots_[s].id == id) return slots_[s].position;
    }
    return kAbsent;
  }

  /// Bytes of the table.
  size_t bytes() const {
    return dense_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    uint32_t id = 0;
    uint32_t position = kAbsent;
  };

  /// Home slot of `id`: 2^64 / golden ratio, as in the item signatures.
  static size_t SlotOf(uint32_t id, size_t mask) {
    return static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }

  /// Dense ids: the position of every id up to the largest.
  std::vector<uint32_t> dense_;
  /// Sparse ids: a power-of-two table.
  std::vector<Slot> slots_;
};

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_ID_INDEX_H_

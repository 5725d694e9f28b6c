#include "ranking/id_index.h"

#include <algorithm>

#include "common/logging.h"

namespace rankjoin {

IdIndex::IdIndex(const uint32_t* ids, size_t n) {
  RANKJOIN_CHECK(n < kAbsent) << "too many ids for 32-bit positions";
  if (n == 0) return;
  const uint32_t max_id = *std::max_element(ids, ids + n);
  if (DenseIdsFit(max_id, n)) {
    dense_.assign(static_cast<size_t>(max_id) + 1, kAbsent);
    for (size_t i = 0; i < n; ++i) dense_[ids[i]] = static_cast<uint32_t>(i);
    return;
  }
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < n; ++i) {
    size_t s = SlotOf(ids[i], mask);
    while (slots_[s].position != kAbsent && slots_[s].id != ids[i]) {
      s = (s + 1) & mask;
    }
    slots_[s] = Slot{ids[i], static_cast<uint32_t>(i)};
  }
}

}  // namespace rankjoin

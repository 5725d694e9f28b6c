#include "ranking/join_store.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "ranking/reorder.h"

namespace rankjoin {

using kernel_internal::kLanes;
using kernel_internal::Lanes;
using kernel_internal::Splat;

namespace {

/// 2^64 / golden ratio: Fibonacci hashing for the id -> row lookup and
/// the item signatures.
constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;

/// The rank weights of a distance (PairKernel): the one place that
/// tells Footrule and Jaccard apart.
uint32_t RankWeight(Distance distance, int k, int rank) {
  return distance == Distance::kFootrule ? static_cast<uint32_t>(k - rank)
                                         : 1;
}

}  // namespace

PairKernel::PairKernel(int k, rankjoin::Distance distance)
    : k_(k),
      chunks_((k + kLanes - 1) / kLanes),
      weights_(static_cast<size_t>(k)),
      left_(static_cast<size_t>(stride()), Splat(0)),
      diagonal_(static_cast<size_t>(stride()), Splat(0)),
      right_(static_cast<size_t>(chunks_), Splat(0)) {
  uint32_t total = 0;
  for (int r = 0; r < k; ++r) {
    weights_[static_cast<size_t>(r)] = RankWeight(distance, k, r);
    RANKJOIN_CHECK(r == 0 || weight(r) <= weight(r - 1))
        << "rank weights must not increase";
    total += weight(r);
  }
  max_distance_ = 2 * total;
  for (int s = 0; s < k; ++s) {
    right_[static_cast<size_t>(s / kLanes)][s % kLanes] = weight(s);
  }
  for (int r = 0; r < k; ++r) {
    left_[static_cast<size_t>(r)] = Splat(weight(r));
    const int first = r / kLanes * kLanes;
    for (int s = first; s < std::min(first + kLanes, k); ++s) {
      diagonal_[static_cast<size_t>(r)][s - first] =
          std::min(weight(r), weight(s));
    }
  }
  // The m smallest weights are the last m. When they step by a constant
  // d from w(k - 1), twice their sum is m * (d * m + 2 * w(k - 1) - d);
  // the check below holds for both distances and every k.
  if (k > 0) {
    const uint32_t step = k > 1 ? weight(k - 2) - weight(k - 1) : 0;
    bound_ = SignatureBound(step, 2 * weight(k - 1) - step);
  }
  uint32_t smallest_sum = 0;
  for (int m = 1; m <= k; ++m) {
    smallest_sum += weight(k - m);
    RANKJOIN_CHECK(bound_.ForMissing(static_cast<uint32_t>(m)) ==
                   2 * smallest_sum)
        << "the signature bound needs evenly spaced smallest weights";
  }
}

PrefixFilterKernel::PrefixFilterKernel(const PairKernel& kernel,
                                       uint32_t raw_theta)
    : kernel_(&kernel),
      half_theta_(static_cast<int>(std::min<uint32_t>(
          raw_theta / 2, static_cast<uint32_t>(kernel.k())))) {}

void PrefixFilterKernel::SetOuter(const ItemId* a, const uint32_t* a_prefix) {
  a_ = a;
  outer_ranks_.clear();
  outer_far_.clear();
  const int k = kernel_->k();
  const int chunks = kernel_->chunks();
  for (int r = 0; r < k; ++r) {
    if (a_prefix[r] == 0) continue;
    outer_ranks_.push_back(r);
    const size_t first = outer_far_.size();
    outer_far_.resize(first + static_cast<size_t>(chunks), Splat(0));
    // 2|r - s| > raw_theta  <=>  |r - s| > floor(raw_theta / 2).
    for (int s = 0; s < k; ++s) {
      if (std::abs(r - s) > half_theta_) {
        outer_far_[first + static_cast<size_t>(s / kLanes)][s % kLanes] = ~0u;
      }
    }
  }
}

ItemSignature SignatureOf(const ItemId* items, int k) {
  ItemSignature signature;
  for (int r = 0; r < k; ++r) {
    const uint64_t bit = (uint64_t{items[r]} * kFibonacci) >> 57;
    signature.words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  return signature;
}

JoinStore JoinStore::Build(const FlatRankings& rankings,
                           const ItemOrder& order,
                           rankjoin::Distance distance) {
  const size_t k = static_cast<size_t>(rankings.k());
  std::vector<uint16_t> canonical(rankings.size() * k);
  for (size_t i = 0; i < rankings.size(); ++i) {
    CanonicalRanks(rankings.items() + i * k, rankings.k(), order,
                   canonical.data() + i * k);
  }
  return Assemble(rankings, std::move(canonical), distance);
}

JoinStore JoinStore::Assemble(const FlatRankings& rankings,
                              std::vector<uint16_t> canonical,
                              rankjoin::Distance distance) {
  const size_t n = rankings.size();
  const size_t k = static_cast<size_t>(rankings.k());
  RANKJOIN_CHECK(canonical.size() == n * k);
  RANKJOIN_CHECK(n < kEmpty) << "too many rankings for 32-bit row indices";
  JoinStore store;
  store.kernel_ = PairKernel(rankings.k(), distance);
  store.stride_ = static_cast<size_t>(store.kernel_.stride());
  store.ids_.assign(rankings.ids(), rankings.ids() + n);
  store.items_.assign(n * store.stride_, 0);
  store.signatures_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ItemId* items = rankings.items() + i * k;
    std::copy_n(items, k, store.items_.data() + i * store.stride_);
    store.signatures_[i] = SignatureOf(items, rankings.k());
  }
  store.canonical_ = std::move(canonical);

  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  store.slots_.assign(capacity, Slot{});
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = store.slots_[store.SlotOf(store.ids_[i])];
    slot.id = store.ids_[i];
    slot.row = static_cast<RowIndex>(i);
  }
  return store;
}

std::vector<RowIndex> JoinStore::Rows() const {
  std::vector<RowIndex> rows(size());
  std::iota(rows.begin(), rows.end(), RowIndex{0});
  return rows;
}

size_t JoinStore::SlotOf(RankingId id) const {
  // Fibonacci hashing; linear probing ends at the id or an empty slot.
  const size_t mask = slots_.size() - 1;
  size_t slot =
      static_cast<size_t>((uint64_t{id} * kFibonacci) >> 32) & mask;
  while (slots_[slot].row != kEmpty && slots_[slot].id != id) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

RowIndex JoinStore::RowOf(RankingId id) const {
  const RowIndex row = slots_.empty() ? kEmpty : slots_[SlotOf(id)].row;
  RANKJOIN_CHECK(row != kEmpty) << "ranking " << id << " is not in the store";
  return row;
}

}  // namespace rankjoin

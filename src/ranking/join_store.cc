#include "ranking/join_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "ranking/reorder.h"

namespace rankjoin {

using kernel_internal::kLanes;
using kernel_internal::Lanes;
using kernel_internal::Splat;

namespace {

/// 2^64 / golden ratio: Fibonacci hashing of the item signatures, as in
/// the id -> row lookup (IdIndex).
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
  const StoreBlock block =
      BuildBlock(rankings.items(), rankings.size(), rankings.k(), order);
  return FromBlocks(rankings, {&block}, distance);
}

StoreBlock JoinStore::BuildBlock(const ItemId* items, size_t rows, int k,
                                 const ItemOrder& order) {
  const size_t width = static_cast<size_t>(k);
  StoreBlock block;
  block.canonical.resize(rows * width);
  block.signatures.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    CanonicalRanks(items + i * width, k, order,
                   block.canonical.data() + i * width);
    block.signatures[i] = SignatureOf(items + i * width, k);
  }
  return block;
}

JoinStore JoinStore::FromBlocks(const FlatRankings& rankings,
                                const std::vector<const StoreBlock*>& blocks,
                                rankjoin::Distance distance) {
  const size_t n = rankings.size();
  const size_t k = static_cast<size_t>(rankings.k());
  RANKJOIN_CHECK(n < IdIndex::kAbsent)
      << "too many rankings for 32-bit row indices";
  JoinStore store;
  store.kernel_ = PairKernel(rankings.k(), distance);
  store.stride_ = static_cast<size_t>(store.kernel_.stride());
  store.ids_.assign(rankings.ids(), rankings.ids() + n);
  store.canonical_.reserve(n * k);
  store.signatures_.reserve(n);
  for (const StoreBlock* block : blocks) {
    store.canonical_.insert(store.canonical_.end(), block->canonical.begin(),
                            block->canonical.end());
    store.signatures_.insert(store.signatures_.end(),
                             block->signatures.begin(),
                             block->signatures.end());
  }
  RANKJOIN_CHECK(store.canonical_.size() == n * k &&
                 store.signatures_.size() == n)
      << "the blocks must cover every row once";
  store.items_.assign(n * store.stride_, 0);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(rankings.items() + i * k, k,
                store.items_.data() + i * store.stride_);
  }
  store.rows_ = IdIndex(store.ids_.data(), n);
  return store;
}

std::vector<RowIndex> JoinStore::Rows() const {
  std::vector<RowIndex> rows(size());
  std::iota(rows.begin(), rows.end(), RowIndex{0});
  return rows;
}

}  // namespace rankjoin

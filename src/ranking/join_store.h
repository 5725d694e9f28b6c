#ifndef RANKJOIN_RANKING_JOIN_STORE_H_
#define RANKJOIN_RANKING_JOIN_STORE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "minispark/checkpoint.h"
#include "ranking/flat_rankings.h"
#include "ranking/id_index.h"
#include "ranking/ranking.h"

namespace rankjoin {

class ItemOrder;

/// Position of a ranking inside a JoinStore. Postings carry a row index
/// instead of a pointer, so every shuffled join record is plain values.
using RowIndex = uint32_t;

namespace kernel_internal {

/// Four 32-bit lanes, written with the GCC/Clang vector extension: the
/// compiler lowers it to baseline SSE2 on x86-64 and NEON on AArch64.
typedef uint32_t Lanes __attribute__((vector_size(16)));

inline constexpr int kLanes = 4;

inline Lanes Splat(uint32_t x) { return Lanes{x, x, x, x}; }

/// All-ones on the lanes of chunk `c` of row `b` that hold `item`.
inline Lanes Equal(Lanes item, const uint32_t* b, int c) {
  Lanes chunk;
  std::memcpy(&chunk, b + c * kLanes, sizeof(chunk));
  return (Lanes)(item == chunk);
}

inline uint32_t SumLanes(Lanes v) { return (v[0] + v[1]) + (v[2] + v[3]); }

inline bool AnyLane(Lanes v) { return ((v[0] | v[1]) | (v[2] | v[3])) != 0; }

/// One row of the unrolled compare: item a_r against every chunk of b,
/// with the weight table picked at compile time (see SharedWeight).
template <int kRow, int... C>
inline void AddRow(Lanes& sum, int k, const uint32_t* a, const uint32_t* b,
                   const Lanes* left, const Lanes* diagonal,
                   const Lanes* right, std::integer_sequence<int, C...>) {
  constexpr int kOwn = kRow / kLanes;
  // Rows of the last chunk may be padding; their weights are zero, so
  // skipping them (a branch on k, the same for every pair) saves work.
  if constexpr (kOwn == sizeof...(C) - 1) {
    if (kRow >= k) return;
  }
  const Lanes item = Splat(a[kRow]);
  ((sum += Equal(item, b, C) &
           (C < kOwn ? left[kRow] : C == kOwn ? diagonal[kRow] : right[C])),
   ...);
}

template <int kChunks, int... R>
inline uint32_t SharedWeightRows(int k, const uint32_t* a, const uint32_t* b,
                                 const Lanes* left, const Lanes* diagonal,
                                 const Lanes* right,
                                 std::integer_sequence<int, R...>) {
  Lanes sum = Splat(0);
  (AddRow<R>(sum, k, a, b, left, diagonal, right,
             std::make_integer_sequence<int, kChunks>{}),
   ...);
  return SumLanes(sum);
}

/// Sum over a_r = b_s of min(w(r), w(s)). The compare is written out by
/// fold expressions over the rows and chunks of whole-chunk rows; the
/// rows r >= k are padding and weigh zero. Row r takes weight left[r]
/// on the chunks before its own, diagonal[r] on its own and right[c] on
/// the chunks after it, so the weights need O(k) tables, and each one
/// is picked at compile time.
template <int kChunks>
inline uint32_t SharedWeight(int k, const uint32_t* a, const uint32_t* b,
                             const Lanes* left, const Lanes* diagonal,
                             const Lanes* right) {
  return SharedWeightRows<kChunks>(
      k, a, b, left, diagonal, right,
      std::make_integer_sequence<int, kChunks * kLanes>{});
}

/// The same sum with the chunk count known only at run time (k > 32).
/// Smaller k do not use it: a VJ job at k = 10 took twice as long with
/// it (EXPERIMENTS.md "Kernel width and row access").
inline uint32_t SharedWeight(int chunks, const uint32_t* a,
                             const uint32_t* b, const Lanes* left,
                             const Lanes* diagonal, const Lanes* right) {
  Lanes sum = Splat(0);
  for (int r = 0; r < chunks * kLanes; ++r) {
    const int own = r / kLanes;
    const Lanes item = Splat(a[r]);
    for (int c = 0; c < own; ++c) sum += Equal(item, b, c) & left[r];
    sum += Equal(item, b, own) & diagonal[r];
    for (int c = own + 1; c < chunks; ++c) sum += Equal(item, b, c) & right[c];
  }
  return SumLanes(sum);
}

/// True when some a_r, r in `ranks`, equals a lane s of b that is set in
/// `b_prefix` and in far[i][s] (`far` holds one row of chunks per rank).
/// kChunks > 0 fixes the chunk count at compile time.
template <int kChunks>
inline bool AnyFar(int chunks, const uint32_t* a, const int* ranks,
                   size_t count, const Lanes* far, const uint32_t* b,
                   const uint32_t* b_prefix) {
  const int n = kChunks > 0 ? kChunks : chunks;
  Lanes hit = Splat(0);
  for (size_t i = 0; i < count; ++i) {
    const Lanes item = Splat(a[ranks[i]]);
    for (int c = 0; c < n; ++c) {
      Lanes in_prefix;
      std::memcpy(&in_prefix, b_prefix + c * kLanes, sizeof(in_prefix));
      hit |= Equal(item, b, c) & in_prefix & far[i * n + c];
    }
  }
  return AnyLane(hit);
}

}  // namespace kernel_internal

/// A row's item set folded into 128 bits: item x sets bit
/// (x * 0x9E3779B97F4A7C15) >> 57, the Fibonacci hash of the id -> row
/// lookup. Pad lanes are not included, and the bits depend only on the
/// item ids, so signatures of rows from different stores (R and S, a
/// query row) compare directly.
struct ItemSignature {
  uint64_t words[2] = {0, 0};
};

/// The signature of the k items at `items`.
ItemSignature SignatureOf(const ItemId* items, int k);

namespace kernel_internal {

/// Set bits of x and y together, counted with shifts and masks: nibble
/// counts of both words are summed, then folded once. Without -mpopcnt,
/// std::popcount lowers to a libgcc call per word, which made a probe
/// of the pair loops' first pass 1.34x slower (DESIGN.md "Join store").
inline uint32_t PopcountPair(uint64_t x, uint64_t y) {
  constexpr uint64_t kOdd = 0x5555555555555555ull;
  constexpr uint64_t kPairs = 0x3333333333333333ull;
  constexpr uint64_t kNibbles = 0x0F0F0F0F0F0F0F0Full;
  x -= (x >> 1) & kOdd;
  y -= (y >> 1) & kOdd;
  x = (x & kPairs) + ((x >> 2) & kPairs);
  y = (y & kPairs) + ((y >> 2) & kPairs);
  uint64_t sum = x + y;  // every nibble <= 8
  sum = (sum & kNibbles) + ((sum >> 4) & kNibbles);  // every byte <= 16
  return static_cast<uint32_t>((sum * 0x0101010101010101ull) >> 56);
}

}  // namespace kernel_internal

/// A lower bound on the distance of two valid rows (k distinct items
/// each) from their signatures alone. A bit set in one signature and
/// clear in the other stands for at least one item the other row lacks,
/// and both rows miss as many items of each other, so with
/// m = ceil(popcount(a ^ b) / 2) each row holds at least m items the
/// other lacks. Their weights are missing from the pair's shared sum, so
/// the distance is at least twice the sum of the m smallest rank weights
/// (PairKernel), which the kernel gives in closed form as
/// m * (m * quadratic + linear): m(m + 1) for Footrule (the fact
/// MinOverlap uses) and 2m for Jaccard. A pair loop copies the bound
/// from PairKernel::signature_bound() into a local first, so that both
/// coefficients stay in registers.
class SignatureBound {
 public:
  constexpr SignatureBound(uint32_t quadratic, uint32_t linear)
      : quadratic_(quadratic), linear_(linear) {}

  /// The bound for m items missing from each row.
  uint32_t ForMissing(uint32_t m) const {
    return m * (m * quadratic_ + linear_);
  }

  uint32_t operator()(const ItemSignature& a, const ItemSignature& b) const {
    const uint32_t differing = kernel_internal::PopcountPair(
        a.words[0] ^ b.words[0], a.words[1] ^ b.words[1]);
    return ForMissing((differing + 1) / 2);
  }

 private:
  uint32_t quadratic_;
  uint32_t linear_;
};

/// The distance a join store's kernel computes. Each is set by one
/// non-increasing weight per rank, w(r); the kernel, the rank-weighted
/// prefix (ForEachPrefixRank) and the signature bound derive everything
/// else from the weights (ALGORITHMS.md §2).
enum class Distance {
  /// Spearman's Footrule with missing items at rank k (paper Section 3):
  /// w(r) = k - r.
  kFootrule,
  /// The Jaccard joins' raw distance |A xor B| = 2(k - overlap) of two
  /// size-k sets (paper Section 8): w(r) = 1.
  kJaccard,
};

/// The verification kernel of the distributed joins and range search. It
/// reads join-store rows: a ranking's k items in rank order, padded to a
/// whole number of 4-lane chunks.
///
/// Both distances are set by rank weights w(r), non-increasing in r. Two
/// disjoint rows are 2 * (sum of w) apart, and every shared item
/// a_r = b_s takes back 2 * min(w(r), w(s)) of it:
///
///   d(a, b) = 2 * sum of w - 2 * sum over a_r = b_s of min(w(r), w(s))
///
/// Footrule's w(r) = k - r gives k(k+1) - 2 * sum of (k - max(r, s)):
/// with missing items at rank k, a shared item takes back
/// (k - r) + (k - s) - |r - s| = 2(k - max(r, s)). Jaccard's w(r) = 1
/// gives 2k - 2 * overlap = |A xor B|.
///
/// The kernel evaluates the sum as a k x ceil(k/4) lane-equality compare:
/// each item of a is broadcast against every chunk of b, and each equal
/// lane adds its weight. Left of lane r every lane weighs w(r), right of
/// it lane s weighs w(s), so the weights take O(k) tables. Pad lanes
/// weigh zero, whatever item they hold. Nothing branches on the items;
/// the merge-join FootruleDistanceBounded and SetOverlap stay as the
/// independent oracles.
class PairKernel {
 public:
  PairKernel() = default;
  explicit PairKernel(
      int k, rankjoin::Distance distance = rankjoin::Distance::kFootrule);

  int k() const { return k_; }
  int chunks() const { return chunks_; }
  /// Lanes per row: k rounded up to whole chunks.
  int stride() const { return chunks_ * kernel_internal::kLanes; }

  /// The weight w(rank) of a rank below k.
  uint32_t weight(int rank) const {
    return weights_[static_cast<size_t>(rank)];
  }
  /// 2 * sum of the weights: the distance of two disjoint rows.
  uint32_t max_distance() const { return max_distance_; }
  /// The signature bound of this kernel's weights.
  SignatureBound signature_bound() const { return bound_; }

  /// Calls fn(std::integral_constant<int, kChunks>) with the row width as
  /// a compile-time constant (kChunks = chunks() for k <= 32, and 0 for
  /// "known at run time" beyond). A pair loop written inside `fn` and
  /// calling the *At<kChunks> kernels inlines an unrolled compare and
  /// pays for the width dispatch once.
  template <typename Fn>
  decltype(auto) WithChunks(Fn&& fn) const {
    switch (chunks_) {
      case 1: return fn(std::integral_constant<int, 1>{});
      case 2: return fn(std::integral_constant<int, 2>{});
      case 3: return fn(std::integral_constant<int, 3>{});
      case 4: return fn(std::integral_constant<int, 4>{});
      case 5: return fn(std::integral_constant<int, 5>{});
      case 6: return fn(std::integral_constant<int, 6>{});
      case 7: return fn(std::integral_constant<int, 7>{});
      case 8: return fn(std::integral_constant<int, 8>{});
      default: return fn(std::integral_constant<int, 0>{});
    }
  }

  /// Raw distance of two rows.
  template <int kChunks>
  uint32_t DistanceAt(const ItemId* a, const ItemId* b) const {
    if constexpr (kChunks > 0) {
      return max_distance_ -
             2 * kernel_internal::SharedWeight<kChunks>(
                     k_, a, b, left_.data(), diagonal_.data(), right_.data());
    } else {
      return max_distance_ -
             2 * kernel_internal::SharedWeight(chunks_, a, b, left_.data(),
                                               diagonal_.data(),
                                               right_.data());
    }
  }
  uint32_t Distance(const ItemId* a, const ItemId* b) const {
    return WithChunks([&](auto width) {
      return DistanceAt<decltype(width)::value>(a, b);
    });
  }


 private:
  int k_ = 0;
  int chunks_ = 0;
  uint32_t max_distance_ = 0;
  SignatureBound bound_{0, 0};
  /// w(r) for r < k.
  std::vector<uint32_t> weights_;
  /// Per row r of a padded row (r < stride()); zero for r >= k.
  /// left_[r]: every lane weighs w(r) (the lanes s < r).
  std::vector<kernel_internal::Lanes> left_;
  /// diagonal_[r]: the chunk holding lane r; lane s weighs
  /// min(w(r), w(s)).
  std::vector<kernel_internal::Lanes> diagonal_;
  /// right_[c]: lane s weighs w(s), its weight for every row r < s.
  std::vector<kernel_internal::Lanes> right_;
};

/// The prefix join's position filter (paper Section 4): a pair fails
/// when an item in both prefixes has ranks r and s with
/// 2|r - s| > raw_theta. A row's prefix is given as lanes, all-ones on
/// the ranks in the prefix. The pair loop fixes the outer row once with
/// SetOuter and then checks every inner row against it: the outer row's
/// prefix items are compared with the inner row's chunks, and an equal
/// lane counts when it is in the inner prefix and far from the outer
/// item's rank.
class PrefixFilterKernel {
 public:
  PrefixFilterKernel(const PairKernel& kernel, uint32_t raw_theta);

  /// False when no rank difference can exceed raw_theta / 2: then the
  /// filter passes every pair.
  bool can_fail() const { return half_theta_ + 1 < kernel_->k(); }

  /// Fixes the outer row `a` and its prefix lanes (stride() lanes).
  void SetOuter(const ItemId* a, const uint32_t* a_prefix);

  /// Whether the filter removes the pair of the outer row and `b`.
  /// kChunks as in PairKernel::WithChunks.
  template <int kChunks>
  bool FiresAt(const ItemId* b, const uint32_t* b_prefix) const {
    return kernel_internal::AnyFar<kChunks>(
        kernel_->chunks(), a_, outer_ranks_.data(), outer_ranks_.size(),
        outer_far_.data(), b, b_prefix);
  }

 private:
  const PairKernel* kernel_;
  int half_theta_ = 0;
  const ItemId* a_ = nullptr;
  /// Ranks of the outer row's prefix items.
  std::vector<int> outer_ranks_;
  /// Per outer prefix rank, per chunk: all-ones on the real lanes s with
  /// |r - s| > raw_theta / 2.
  std::vector<kernel_internal::Lanes> outer_far_;
};

/// One partition's share of a join store, built where its rows are (the
/// ordering phase's canonicalize tasks): the canonical ranks (k per row)
/// and the signatures of its rows, in row order.
struct StoreBlock {
  std::vector<uint16_t> canonical;
  std::vector<ItemSignature> signatures;
};

/// The block's payload, for the materialized-bytes metric (found by
/// argument-dependent lookup in minispark).
inline size_t ApproxSize(const StoreBlock& block) {
  return sizeof(StoreBlock) + block.canonical.size() * sizeof(uint16_t) +
         block.signatures.size() * sizeof(ItemSignature);
}

/// The flat join store: one row per ranking, built once per job by the
/// ordering phase and shared read-only by every stage of the join (the
/// range indexes build and keep one too).
///
/// Row i holds ranking i's k items in rank order, padded with zero items
/// to PairKernel::stride() lanes, so a row is whole 4-lane chunks and no
/// kernel load reads past the allocation. Beside it the store keeps the
/// row's canonical order (the ranks of its items sorted by the global
/// item order, rarest first; prefixes are taken from it), the ranking
/// ids, the rows' item signatures (16 B per row) and an id -> row lookup
/// (IdIndex) sized by the row count.
///
/// The canonical orders and signatures come in StoreBlocks, built by
/// BuildBlock; FromBlocks concatenates them and adds the padded rows and
/// the lookup. Build is the one-block case on the calling thread.
class JoinStore {
 public:
  JoinStore() = default;

  /// Builds the store on the calling thread, canonicalizing every
  /// ranking under `order`; its kernel computes `distance`.
  static JoinStore Build(
      const FlatRankings& rankings, const ItemOrder& order,
      rankjoin::Distance distance = rankjoin::Distance::kFootrule);

  /// The block of `rows` rankings of k items each, stored row after row
  /// at `items`, under `order`.
  static StoreBlock BuildBlock(const ItemId* items, size_t rows, int k,
                               const ItemOrder& order);

  /// Builds the store of `rankings` from `blocks`, which cover its rows
  /// in order; its kernel computes `distance`.
  static JoinStore FromBlocks(
      const FlatRankings& rankings,
      const std::vector<const StoreBlock*>& blocks,
      rankjoin::Distance distance = rankjoin::Distance::kFootrule);

  int k() const { return kernel_.k(); }
  size_t size() const { return ids_.size(); }
  const PairKernel& kernel() const { return kernel_; }

  /// Every row index, in order — what the pipelines parallelize.
  std::vector<RowIndex> Rows() const;

  RankingId id(RowIndex row) const { return ids_[row]; }
  /// stride() items in rank order; the lanes past k are padding.
  const ItemId* items(RowIndex row) const {
    return items_.data() + static_cast<size_t>(row) * stride_;
  }
  /// k ranks in canonical order: canonical(row)[t] is the rank of the
  /// row's t-th rarest item.
  const uint16_t* canonical(RowIndex row) const {
    return canonical_.data() + static_cast<size_t>(row) * kernel_.k();
  }

  /// The signature of the row's k items.
  const ItemSignature& signature(RowIndex row) const {
    return signatures_[row];
  }

  /// Row of ranking `id`, which must be in the store.
  RowIndex RowOf(RankingId id) const {
    const RowIndex row = rows_.Find(id);
    RANKJOIN_CHECK(row != IdIndex::kAbsent)
        << "ranking " << id << " is not in the store";
    return row;
  }

  uint32_t Distance(RowIndex a, RowIndex b) const {
    return kernel_.Distance(items(a), items(b));
  }

 private:
  PairKernel kernel_;
  size_t stride_ = 0;
  std::vector<RankingId> ids_;
  std::vector<ItemId> items_;
  std::vector<uint16_t> canonical_;
  std::vector<ItemSignature> signatures_;
  /// The id -> row lookup.
  IdIndex rows_;
};

}  // namespace rankjoin

namespace rankjoin::minispark {

/// A store block spills and checkpoints as its two arrays. It holds no
/// addresses, so a checkpoint of the canonicalize stage restores in a
/// later process.
template <>
struct Serde<rankjoin::StoreBlock> {
  using Canonical = Serde<std::vector<uint16_t>>;
  using Signatures = Serde<std::vector<rankjoin::ItemSignature>>;

  static size_t Size(const rankjoin::StoreBlock& v) {
    return Canonical::Size(v.canonical) + Signatures::Size(v.signatures);
  }
  static void Write(const rankjoin::StoreBlock& v, std::string* out) {
    Canonical::Write(v.canonical, out);
    Signatures::Write(v.signatures, out);
  }
  static void Read(const char** p, const char* end,
                   rankjoin::StoreBlock* out) {
    Canonical::Read(p, end, &out->canonical);
    Signatures::Read(p, end, &out->signatures);
  }
};

template <>
struct CheckpointPortable<rankjoin::StoreBlock> : std::true_type {};

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_RANKING_JOIN_STORE_H_

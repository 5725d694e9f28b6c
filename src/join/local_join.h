#ifndef RANKJOIN_JOIN_LOCAL_JOIN_H_
#define RANKJOIN_JOIN_LOCAL_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "join/stats.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Which prefix derivation to use (paper Section 4).
enum class PrefixMode {
  /// Prefix in the global frequency order — required when rankings are
  /// reordered; the paper's default. Its length is set by the items'
  /// rank weights (ForEachPrefixRank) and never exceeds the paper's
  /// overlap prefix k - o + 1.
  kOverlap,
  /// Ordered prefix of Lemma 4.1 (best-ranked items); slightly tighter
  /// but fixes the prefix to the original top ranks.
  kOrdered,
};

/// One element of a posting list after the prefix flat-map: a ranking
/// that contains the list's key item in its prefix. Plain values only —
/// `row` indexes the job's JoinStore — so postings shuffle and spill as
/// they are.
struct PrefixPosting {
  RowIndex row = 0;
  /// Original rank of the key item inside this ranking — lets the
  /// nested-loop variant apply the position filter without a lookup.
  uint16_t key_rank = 0;
  /// Centroid type marker used by the CL joining phase (Lemma 5.3):
  /// true when the ranking is the representative of a singleton cluster.
  bool singleton = false;
};

/// Calls `fn(rank)` for every prefix item of `row`, in canonical order,
/// when the row is joined under raw threshold `raw_theta`. The one prefix
/// rule of the joins: the pipelines emit postings with it and
/// LocalPrefixJoin filters with it.
///
/// kOverlap posts the rank-weighted prefix (ALGORITHMS.md §2) under the
/// rank weights w of the store's kernel: canonical position p while
/// W(p) = sum over t >= p of w(canonical[t]) is at least
/// T = ceil((max_distance - raw_theta) / 2). A pair's distance is
/// max_distance - 2 * sum over shared items of min(w(r), w(s)), and
/// every shared item sits at or after the pair's first shared item x in
/// both canonical orders, so a qualifying pair has W(x) >= T in both
/// rows: x is in both prefixes. W falls as p grows, so the posted
/// positions start the canonical order, and W(0) = max_distance / 2 >= T
/// keeps at least one. Footrule weighs rank r with k - r; Jaccard's unit
/// weights post the overlap prefix of k - o + 1 items, o the least
/// overlap the threshold lets through. kOrdered (Footrule only) posts
/// the items at ranks below OrderedPrefix (Lemma 4.1), the best-ranked
/// ones.
template <typename Fn>
void ForEachPrefixRank(const JoinStore& store, RowIndex row,
                       uint32_t raw_theta, PrefixMode mode, Fn&& fn) {
  const uint16_t* canonical = store.canonical(row);
  const int k = store.k();
  if (mode == PrefixMode::kOverlap) {
    const PairKernel& kernel = store.kernel();
    const int64_t max_distance = kernel.max_distance();
    const int64_t needed = (max_distance - raw_theta + 1) / 2;
    int64_t weight = max_distance / 2;
    for (int t = 0; t < k && weight >= needed; ++t) {
      fn(canonical[t]);
      weight -= kernel.weight(canonical[t]);
    }
  } else {
    const int ranks = OrderedPrefix(raw_theta, k);
    for (int t = 0; t < k; ++t) {
      if (canonical[t] < ranks) fn(canonical[t]);
    }
  }
}

/// The ranks a prefix item of a row may hold, the limit PrefixOwner
/// takes: any of the k ranks under kOverlap, the ranks below
/// OrderedPrefix(raw_theta) under kOrdered.
inline int PrefixRankLimit(int k, uint32_t raw_theta, PrefixMode mode) {
  return mode == PrefixMode::kOrdered ? OrderedPrefix(raw_theta, k) : k;
}

/// The one ownership rule of the prefix joins: two rows that share
/// several prefix items meet in the posting group of each, and only the
/// group of their first shared prefix item in canonical order emits the
/// pair, so no pipeline needs a distinct stage (ALGORITHMS.md §4).
/// Built once per outer posting `a` of a group, it finds the key item's
/// canonical position in `a`; Repeats(b) then tells whether the pair
/// with inner row `b` also meets in an earlier group, that is whether
/// `b` holds one of `a`'s prefix items before the key in its own prefix.
/// `rank_limit` is PrefixRankLimit of the postings' prefix rule and
/// applies to both rows. Under kOverlap it is k and any real lane of `b`
/// counts: the key is in `b`'s prefix, which is prefix-closed, so every
/// item of `b` before it is too, whatever threshold `b` posted under
/// (the centroid join gives singletons a shorter prefix), and the rule
/// needs no prefix length. Under kOrdered only ranks below the prefix
/// size count. Pad lanes hold item 0 and never count. `b` may come
/// from another store of the same k and item order (the R-S join).
class PrefixOwner {
 public:
  PrefixOwner(const JoinStore& store, const PrefixPosting& a, int rank_limit)
      : items_(store.items(a.row)),
        canonical_(store.canonical(a.row)),
        ranks_(rank_limit) {
    while (canonical_[key_position_] != a.key_rank) ++key_position_;
  }

  /// Whether the pair of the outer posting and row `b` (k items in rank
  /// order) belongs to the group of an earlier shared prefix item.
  bool Repeats(const ItemId* b) const {
    for (int t = 0; t < key_position_; ++t) {
      const uint16_t rank = canonical_[t];
      if (rank >= ranks_) continue;  // outside an ordered prefix
      for (int s = 0; s < ranks_; ++s) {
        if (b[s] == items_[rank]) return true;
      }
    }
    return false;
  }

 private:
  const ItemId* items_;
  const uint16_t* canonical_;
  /// Ranks a prefix item may hold (PrefixRankLimit).
  int ranks_;
  int key_position_ = 0;
};

/// The (prefix item, posting) pairs of one row joined under raw
/// threshold `raw_theta` (ForEachPrefixRank): the flat-map step of every
/// prefix-filtering pipeline.
std::vector<std::pair<ItemId, PrefixPosting>> EmitPrefix(
    const JoinStore& store, RowIndex row, uint32_t raw_theta,
    PrefixMode mode, bool singleton = false);

/// Options shared by the per-partition join kernels.
struct LocalJoinOptions {
  /// The job's join store; postings index its rows. Must outlive every
  /// local join that reads it.
  const JoinStore* store = nullptr;
  /// Raw (integer) distance threshold; the postings were emitted under
  /// it.
  uint32_t raw_theta = 0;
  /// Prefix rule the postings were emitted with.
  PrefixMode prefix_mode = PrefixMode::kOverlap;
  /// Apply the rank-difference position filter (paper Section 4).
  bool position_filter = true;
};

namespace local_join_internal {

/// The calling thread's index buffer for the compacted pair loops.
std::vector<uint32_t>& SurvivorBuffer();

/// The nested-loop pairs of outer posting `a` and `inner[0, count)`, each
/// under its own raw threshold. A branch-free first pass applies the
/// position filter on the key item's ranks and then the signature bound,
/// and appends the survivors' indices to `survivors` (room for `count`);
/// the second pass runs the kernel at width kChunks (see
/// PairKernel::WithChunks) on the survivors only and emits the
/// qualifying pairs that the group owns (PrefixOwner).
template <int kChunks, typename Threshold>
void JoinOuterPosting(const JoinStore& store, const PrefixPosting& a,
                      const PrefixPosting* inner, size_t count,
                      const Threshold& threshold, bool position_filter,
                      int rank_limit, uint32_t* survivors,
                      std::vector<ScoredPair>* out, JoinStats* stats) {
  const ItemSignature& a_signature = store.signature(a.row);
  const SignatureBound bound = store.kernel().signature_bound();
  size_t others = 0;
  size_t near = 0;
  size_t kept = 0;
  for (size_t j = 0; j < count; ++j) {
    const PrefixPosting& b = inner[j];
    const uint32_t theta = threshold(a, b);
    const bool other = a.row != b.row;
    const bool ranks_close =
        !position_filter ||
        PositionFilterPasses(a.key_rank, b.key_rank, theta);
    const bool passes = other & ranks_close;
    const bool close = bound(a_signature, store.signature(b.row)) <= theta;
    survivors[kept] = static_cast<uint32_t>(j);
    others += other;
    near += passes;
    kept += passes & close;
  }
  stats->candidates += others;
  stats->position_filtered += others - near;
  stats->signature_filtered += near - kept;
  stats->verified += kept;
  if (kept == 0) return;
  const PrefixOwner owner(store, a, rank_limit);
  const ItemId* a_items = store.items(a.row);
  for (size_t s = 0; s < kept; ++s) {
    const PrefixPosting& b = inner[survivors[s]];
    const ItemId* b_items = store.items(b.row);
    const uint32_t d = store.kernel().DistanceAt<kChunks>(a_items, b_items);
    if (d > threshold(a, b)) continue;
    ++stats->verify_passed;
    if (owner.Repeats(b_items)) {
      ++stats->repeat_pairs;
    } else {
      out->push_back({MakeResultPair(store.id(a.row), store.id(b.row)), d});
    }
  }
}

}  // namespace local_join_internal

/// Nested-loop join over all pairs of `group` (paper Section 4.1, and
/// Algorithm 1's compute_sim in the CL joining phase): each pair is
/// filtered on the key item's ranks and on the signature bound and
/// verified under its own raw threshold `threshold(a, b)`. A qualifying
/// pair is emitted only when the group owns it (PrefixOwner, with the
/// postings' `rank_limit`).
template <typename Threshold>
void NestedLoopJoin(const JoinStore& store,
                    const std::vector<PrefixPosting>& group,
                    const Threshold& threshold, bool position_filter,
                    int rank_limit, std::vector<ScoredPair>* out,
                    JoinStats* stats) {
  const size_t n = group.size();
  if (n < 2) return;
  std::vector<uint32_t>& survivors = local_join_internal::SurvivorBuffer();
  survivors.resize(n);
  JoinStats counts;  // stack-local, so the loop keeps it in registers
  store.kernel().WithChunks([&](auto width) {
    for (size_t i = 0; i + 1 < n; ++i) {
      local_join_internal::JoinOuterPosting<decltype(width)::value>(
          store, group[i], &group[i + 1], n - i - 1, threshold,
          position_filter, rank_limit, survivors.data(), out, &counts);
    }
  });
  stats->MergeCounters(counts);
}

/// R-S variant of NestedLoopJoin: every pair of one posting from `left`
/// and one from `right` (two sub-partitions of one posting list).
template <typename Threshold>
void NestedLoopJoinRS(const JoinStore& store,
                      const std::vector<PrefixPosting>& left,
                      const std::vector<PrefixPosting>& right,
                      const Threshold& threshold, bool position_filter,
                      int rank_limit, std::vector<ScoredPair>* out,
                      JoinStats* stats) {
  if (left.empty() || right.empty()) return;
  std::vector<uint32_t>& survivors = local_join_internal::SurvivorBuffer();
  survivors.resize(right.size());
  JoinStats counts;  // stack-local, so the loop keeps it in registers
  store.kernel().WithChunks([&](auto width) {
    for (const PrefixPosting& a : left) {
      local_join_internal::JoinOuterPosting<decltype(width)::value>(
          store, a, right.data(), right.size(), threshold, position_filter,
          rank_limit, survivors.data(), out, &counts);
    }
  });
  stats->MergeCounters(counts);
}

/// VJ-style per-group join (paper Section 4). Every member of a group
/// holds the key item in its prefix, so every pair of members shares a
/// prefix item: a plain pair loop over the group yields exactly the
/// candidates an inverted index over the members' prefixes would. Each
/// pair passes the position filter over the items in both prefixes and
/// the signature bound before the kernel runs on it. Emits the qualifying
/// pairs the group owns (PrefixOwner) into `out`, smaller id first, so
/// across all groups every pair is emitted once.
void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats);

/// VJ-NL per-group join (paper Section 4.1): iterator-style nested loop
/// over all pairs of the group, applying the position filter on the key
/// item's ranks before verification.
void LocalNestedLoopJoin(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         std::vector<ScoredPair>* out, JoinStats* stats);

/// R-S nested-loop join between two sub-partitions of one posting list
/// (paper Section 6 / Algorithm 3): pairs one side against the other,
/// with the position filter on the shared key item.
void LocalNestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                           const std::vector<PrefixPosting>& right,
                           const LocalJoinOptions& options,
                           std::vector<ScoredPair>* out, JoinStats* stats);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_LOCAL_JOIN_H_

#ifndef RANKJOIN_JOIN_LOCAL_JOIN_H_
#define RANKJOIN_JOIN_LOCAL_JOIN_H_

#include <cstddef>
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

/// The shared weight T = ceil((max_distance - raw_theta) / 2) that the
/// shared items of a pair qualifying under raw threshold `raw_theta`
/// take back: a pair's distance is max_distance - 2 * sum over shared
/// items of min(w(r), w(s)) (PairKernel).
inline int64_t SharedWeightNeeded(const PairKernel& kernel,
                                  uint32_t raw_theta) {
  return (int64_t{kernel.max_distance()} - raw_theta + 1) / 2;
}

/// Whether every pair qualifying under `raw_theta` shares at least two
/// items: one shared item takes back at most w(0), the largest weight,
/// so T > w(0) needs a second (ALGORITHMS.md §2). That is
/// raw_theta < k(k - 1) for Footrule and raw_theta < 2k - 2 for Jaccard.
inline bool SharesTwoItems(const PairKernel& kernel, uint32_t raw_theta) {
  return SharedWeightNeeded(kernel, raw_theta) > int64_t{kernel.weight(0)};
}

/// Calls `fn(rank)` for every prefix item of `row`, in canonical order,
/// when the row is joined under raw threshold `raw_theta`. The one prefix
/// rule of the joins: the pipelines emit postings with it and
/// LocalPrefixJoin filters with it.
///
/// kOverlap posts the rank-weighted prefix (ALGORITHMS.md §2) under the
/// rank weights w of the store's kernel: canonical position p while
/// W(p) = sum over t >= p of w(canonical[t]) is at least
/// T = SharedWeightNeeded(raw_theta). Every shared item of a pair sits at
/// or after the pair's first shared item x in both canonical orders, so
/// a qualifying pair has W(x) >= T in both rows: x is in both prefixes.
/// W falls as p grows, so the posted positions start the canonical
/// order, and W(0) = max_distance / 2 >= T keeps at least one. Footrule
/// weighs rank r with k - r; Jaccard's unit weights post the overlap
/// prefix of k - o + 1 items, o the least overlap the threshold lets
/// through. kOrdered (Footrule only) posts the items at ranks below
/// OrderedPrefix (Lemma 4.1), the best-ranked ones.
template <typename Fn>
void ForEachPrefixRank(const JoinStore& store, RowIndex row,
                       uint32_t raw_theta, PrefixMode mode, Fn&& fn) {
  const uint16_t* canonical = store.canonical(row);
  const int k = store.k();
  if (mode == PrefixMode::kOverlap) {
    const PairKernel& kernel = store.kernel();
    const int64_t needed = SharedWeightNeeded(kernel, raw_theta);
    int64_t weight = kernel.max_distance() / 2;
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

/// Where a posting's second key items sit in its row (ALGORITHMS.md §2):
/// the key item x of its group at canonical position `key`, and the
/// sub-keys y at positions key + 1 .. end - 1, those p2 > key with
/// w(key) + W(p2) >= T under the raw threshold given to SubKeysOf. When
/// every qualifying pair shares two items (SharesTwoItems), let x and y
/// be a pair's first two shared items in canonical order: every shared
/// weight after x sits at or after y's position p2, so the pair's shared
/// sum is at most w(key) + W(p2) in each row. y is then a sub-key of
/// both rows, and the pair meets in the (x, y) bucket of group x.
struct SubKeys {
  int key = 0;
  int end = 0;
};

/// The sub-keys of posting `a` in its group under raw threshold
/// `raw_theta`.
inline SubKeys SubKeysOf(const JoinStore& store, const PrefixPosting& a,
                         uint32_t raw_theta) {
  const PairKernel& kernel = store.kernel();
  const uint16_t* canonical = store.canonical(a.row);
  const int64_t needed = SharedWeightNeeded(kernel, raw_theta);
  int64_t suffix = kernel.max_distance() / 2;  // W(0)
  SubKeys keys;
  while (canonical[keys.key] != a.key_rank) {
    suffix -= kernel.weight(canonical[keys.key++]);
  }
  const int64_t key_weight = kernel.weight(a.key_rank);
  suffix -= key_weight;  // W(key + 1)
  keys.end = keys.key + 1;
  while (keys.end < store.k() && key_weight + suffix >= needed) {
    suffix -= kernel.weight(canonical[keys.end++]);
  }
  return keys;
}

/// The one ownership rule of the prefix joins: two rows that share
/// several prefix items meet in the posting group of each, and only the
/// group of their first shared prefix item in canonical order emits the
/// pair, so no pipeline needs a distinct stage (ALGORITHMS.md §4). In a
/// group bucketed by second key item, the pair also meets in the (x, y)
/// bucket of every sub-key y both rows hold, and only the bucket of its
/// second shared item emits it. Built once per outer posting `a` (per
/// bucket), Repeats(b) tells whether the pair with inner row `b` belongs
/// elsewhere: whether `b` holds one of `a`'s items at a canonical
/// position before the end, other than the key, where the end is the key
/// itself in the plain loop and the second key in a bucket. Both rows
/// hold x (and y), and the canonical order is global, so either row of
/// the pair gets the same answer.
///
/// `rank_limit` is PrefixRankLimit of the postings' prefix rule and
/// applies to both rows. Under kOverlap it is k and any real lane of `b`
/// counts: the key is in `b`'s prefix, which is prefix-closed, so every
/// item of `b` before it is too, whatever threshold `b` posted under
/// (the centroid join gives singletons a shorter prefix), and the rule
/// needs no prefix length. Under kOrdered only ranks below the prefix
/// size count, and groups are not bucketed. Pad lanes hold item 0 and
/// never count. `b` may come from another store of the same k and item
/// order (the R-S join).
class PrefixOwner {
 public:
  /// The owner test of the plain pair loop.
  PrefixOwner(const JoinStore& store, const PrefixPosting& a, int rank_limit)
      : items_(store.items(a.row)),
        canonical_(store.canonical(a.row)),
        ranks_(rank_limit),
        chunks_(store.kernel().chunks()) {
    while (canonical_[key_] != a.key_rank) ++key_;
    end_ = key_;
  }

  /// The owner test of the bucket whose second key sits at canonical
  /// position `second` of row `row`, the key at `key` (SubKeys).
  PrefixOwner(const JoinStore& store, RowIndex row, int key, int second)
      : items_(store.items(row)),
        canonical_(store.canonical(row)),
        ranks_(store.k()),
        chunks_(store.kernel().chunks()),
        key_(key),
        end_(second) {}

  /// Whether the pair of the outer posting and row `b` (k items in rank
  /// order, padded) belongs to an earlier group or bucket: one lane
  /// compare per earlier item against b's lanes below the rank limit.
  /// kChunks as in PairKernel::WithChunks.
  template <int kChunks>
  bool RepeatsAt(const ItemId* b) const {
    using kernel_internal::Lanes;
    const int chunks = kChunks > 0 ? kChunks : chunks_;
    const Lanes first_lanes = {0, 1, 2, 3};
    Lanes hit = kernel_internal::Splat(0);
    for (int t = 0; t < end_; ++t) {
      const uint16_t rank = canonical_[t];
      if (t == key_ || rank >= ranks_) continue;
      const Lanes item = kernel_internal::Splat(items_[rank]);
      for (int c = 0; c < chunks; ++c) {
        const Lanes real =
            (Lanes)(first_lanes + kernel_internal::Splat(
                                      static_cast<uint32_t>(c * 4)) <
                    kernel_internal::Splat(static_cast<uint32_t>(ranks_)));
        hit |= kernel_internal::Equal(item, b, c) & real;
      }
    }
    return kernel_internal::AnyLane(hit);
  }
  bool Repeats(const ItemId* b) const { return RepeatsAt<0>(b); }

 private:
  const ItemId* items_;
  const uint16_t* canonical_;
  /// Ranks a prefix item may hold (PrefixRankLimit).
  int ranks_;
  int chunks_;
  int key_ = 0;
  int end_ = 0;
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

/// One raw threshold for every pair, the Threshold of the joins whose
/// postings were all emitted under it. A Threshold gives a pair's raw
/// threshold, and `largest()` the largest any pair of a group carries:
/// the pair loops take sub-keys under it.
struct UniformThreshold {
  uint32_t raw_theta = 0;
  uint32_t operator()(const PrefixPosting&, const PrefixPosting&) const {
    return raw_theta;
  }
  uint32_t largest() const { return raw_theta; }
};

namespace local_join_internal {

/// The smallest group (postings of both sides) whose pair loop runs in
/// (x, y) buckets; smaller groups run the plain loop, where the buckets'
/// set-up costs more than the pairs they save. Set from BM_GroupJoin
/// (micro_kernels; EXPERIMENTS.md "Two-item keys").
inline constexpr size_t kMinBucketedGroup = 24;

/// Whether a group of `size` postings (both sides) runs bucketed: the
/// rule is exact when every qualifying pair shares two items under the
/// group's largest pair threshold and the prefix is canonical-order
/// closed (`rank_limit` = k: every kOverlap prefix, and a kOrdered one
/// only when it is the whole row).
inline bool Bucketed(const JoinStore& store, size_t size,
                     uint32_t largest_theta, int rank_limit,
                     size_t min_bucketed) {
  return size >= min_bucketed && rank_limit == store.k() &&
         SharesTwoItems(store.kernel(), largest_theta);
}

/// One posting of a side in one (x, y) bucket: the posting at index
/// `member` of its side, its row's canonical positions of x (`key`) and
/// y (`second`), and y itself with its hash slot.
struct SubPosting {
  uint32_t slot;
  ItemId item;
  uint32_t member;
  uint16_t key;
  uint16_t second;
};

/// One (x, y) bucket of a group: the sub-postings [left_begin, left_end)
/// of the left (or only) side and [right_begin, right_end) of the right
/// side of an R-S group.
struct Bucket {
  uint32_t left_begin;
  uint32_t left_end;
  uint32_t right_begin;
  uint32_t right_end;
};

/// The calling thread's buffers of the pair loops: the survivor indices
/// of one outer posting, the sub-postings of a group's two sides and its
/// buckets. Each grows to the largest group the thread joins.
struct Scratch {
  std::vector<uint32_t> survivors;
  std::vector<SubPosting> left;
  std::vector<SubPosting> right;
  std::vector<Bucket> buckets;
};
Scratch& ThreadScratch();

/// Sorts a group's sub-postings under raw threshold `key_theta`
/// (SubKeysOf) into (x, y) buckets in `scratch`: for a self-join group
/// (`right` null) every run of two or more sub-postings of one y, for an
/// R-S group every y both sides hold. Each side is ordered by a hash of
/// y with one stable counting pass and an insertion pass over the items
/// that share a slot, so a bucket's members keep the posting order.
/// Returns false, and the group runs the plain loop, when the buckets
/// hold no fewer pairs than the plain loop would try (near-duplicates
/// share most of their items, and a large threshold gives many
/// sub-keys).
bool BucketGroup(const JoinStore& left_store,
                 const std::vector<PrefixPosting>& left,
                 const JoinStore& right_store,
                 const std::vector<PrefixPosting>* right, uint32_t key_theta,
                 Scratch* scratch);

/// The position filter on the key item's ranks (paper Section 4.1),
/// under each pair's own threshold.
struct KeyRankFilter {
  bool enabled = true;
  bool Fires(const PrefixPosting& a, const PrefixPosting& b,
             uint32_t theta) const {
    return enabled & !PositionFilterPasses(a.key_rank, b.key_rank, theta);
  }
};

/// The counters a pair loop keeps (JoinStats' names), as plain locals of
/// the group loop, which adds them to the JoinStats once per group.
struct LoopCounts {
  uint64_t candidates = 0;
  uint64_t position_filtered = 0;
  uint64_t signature_filtered = 0;
  uint64_t repeat_pairs = 0;
  uint64_t verified = 0;
  uint64_t verify_passed = 0;

  void AddTo(JoinStats* stats) const {
    stats->candidates += candidates;
    stats->position_filtered += position_filtered;
    stats->signature_filtered += signature_filtered;
    stats->repeat_pairs += repeat_pairs;
    stats->verified += verified;
    stats->verify_passed += verify_passed;
  }
};

/// The pairs of outer posting `a` and the `count` inner postings
/// `inner[member(j)]` of another side (or later in its own), in two
/// passes. A branch-free first pass applies the position filter
/// (`filter`) and then the signature bound, each under the pair's own
/// raw threshold, and appends the survivors' indices j to `survivors`
/// (room for `count`). The second pass asks the
/// ownership test `owner()` first and runs the kernel at width kChunks
/// (see PairKernel::WithChunks) only on the pairs the group or bucket
/// owns, then calls `emit(a, b, d)` for the qualifying ones. Pairs of
/// one row with itself (the same store and row on both sides) are no
/// candidates.
template <int kChunks, typename Member, typename Filter, typename Threshold,
          typename Owner, typename Emit>
void JoinOuter(const JoinStore& a_store, const JoinStore& b_store,
               const PrefixPosting& a, const PrefixPosting* inner,
               size_t count, const Member& member, const Filter& filter,
               const Threshold& threshold, const Owner& owner,
               const Emit& emit, uint32_t* survivors, LoopCounts* stats) {
  const ItemSignature& a_signature = a_store.signature(a.row);
  const SignatureBound bound = a_store.kernel().signature_bound();
  // A local copy, so the loop keeps the thresholds in registers.
  const Threshold pair_theta = threshold;
  const bool one_store = &a_store == &b_store;
  size_t others = 0;
  size_t near = 0;
  size_t kept = 0;
  for (size_t j = 0; j < count; ++j) {
    const uint32_t m = member(j);
    const PrefixPosting& b = inner[m];
    const uint32_t theta = pair_theta(a, b);
    const bool other = !one_store | (a.row != b.row);
    const bool passes = other & !filter.Fires(a, b, theta);
    const bool close = bound(a_signature, b_store.signature(b.row)) <= theta;
    survivors[kept] = static_cast<uint32_t>(j);
    others += other;
    near += passes;
    kept += passes & close;
  }
  stats->candidates += others;
  stats->position_filtered += others - near;
  stats->signature_filtered += near - kept;
  if (kept == 0) return;
  const PrefixOwner owns = owner();
  const PairKernel& kernel = a_store.kernel();
  const ItemId* a_items = a_store.items(a.row);
  size_t repeats = 0;
  size_t passed = 0;
  for (size_t s = 0; s < kept; ++s) {
    const PrefixPosting& b = inner[member(survivors[s])];
    const ItemId* b_items = b_store.items(b.row);
    if (owns.RepeatsAt<kChunks>(b_items)) {
      ++repeats;
      continue;
    }
    const uint32_t d = kernel.DistanceAt<kChunks>(a_items, b_items);
    if (d > pair_theta(a, b)) continue;
    ++passed;
    emit(a, b, d);
  }
  stats->repeat_pairs += repeats;
  stats->verified += kept - repeats;
  stats->verify_passed += passed;
}

/// Every pair of `group` (one store), in the plain loop or, when the
/// group runs bucketed (Bucketed, from `min_bucketed` postings, and
/// BucketGroup under threshold.largest()), the pairs of each (x, y)
/// bucket, each pair under the position filter `filter`. Emits each
/// qualifying pair the group and bucket own, smaller id first.
template <typename Threshold, typename Filter>
void JoinSelf(const JoinStore& store, const std::vector<PrefixPosting>& group,
              const Threshold& threshold, const Filter& filter, int rank_limit,
              size_t min_bucketed, std::vector<ScoredPair>* out,
              JoinStats* stats) {
  const size_t n = group.size();
  if (n < 2) return;
  Scratch& scratch = ThreadScratch();
  scratch.survivors.resize(n);
  uint32_t* survivors = scratch.survivors.data();
  const PrefixPosting* postings = group.data();
  const bool bucketed =
      Bucketed(store, n, threshold.largest(), rank_limit, min_bucketed) &&
      BucketGroup(store, group, store, nullptr, threshold.largest(),
                  &scratch);
  const std::vector<SubPosting>& entries = scratch.left;
  auto emit = [&store, out](const PrefixPosting& a, const PrefixPosting& b,
                            uint32_t d) {
    out->push_back({MakeResultPair(store.id(a.row), store.id(b.row)), d});
  };
  LoopCounts counts;
  store.kernel().WithChunks([&](auto width) {
    constexpr int kChunks = decltype(width)::value;
    if (!bucketed) {
      for (uint32_t i = 0; i + 1 < n; ++i) {
        JoinOuter<kChunks>(
            store, store, postings[i], postings, n - i - 1,
            [i](size_t j) { return i + 1 + static_cast<uint32_t>(j); },
            filter, threshold,
            [&] { return PrefixOwner(store, postings[i], rank_limit); },
            emit, survivors, &counts);
      }
      return;
    }
    for (const Bucket& bucket : scratch.buckets) {
      for (uint32_t i = bucket.left_begin; i + 1 < bucket.left_end; ++i) {
        const SubPosting& outer = entries[i];
        const SubPosting* later = &entries[i + 1];
        JoinOuter<kChunks>(
            store, store, postings[outer.member], postings,
            bucket.left_end - i - 1,
            [later](size_t j) { return later[j].member; }, filter,
            threshold,
            [&] {
              return PrefixOwner(store, postings[outer.member].row,
                                 outer.key, outer.second);
            },
            emit, survivors, &counts);
      }
    }
  });
  counts.AddTo(stats);
}

/// Every pair of one posting of `left` (rows of `left_store`) and one of
/// `right` (rows of `right_store`, the same k and item order), in the
/// plain loop or in the (x, y) buckets both sides hold (BucketGroup).
/// Pairs go to `emit(a, b, d)`, the left posting first.
template <typename Threshold, typename Emit>
void JoinSides(const JoinStore& left_store,
               const std::vector<PrefixPosting>& left,
               const JoinStore& right_store,
               const std::vector<PrefixPosting>& right,
               const Threshold& threshold, const KeyRankFilter& filter,
               int rank_limit, size_t min_bucketed, const Emit& emit,
               JoinStats* stats) {
  if (left.empty() || right.empty()) return;
  Scratch& scratch = ThreadScratch();
  scratch.survivors.resize(right.size());
  uint32_t* survivors = scratch.survivors.data();
  const bool bucketed =
      Bucketed(left_store, left.size() + right.size(), threshold.largest(),
               rank_limit, min_bucketed) &&
      BucketGroup(left_store, left, right_store, &right, threshold.largest(),
                  &scratch);
  const std::vector<SubPosting>& lefts = scratch.left;
  const std::vector<SubPosting>& rights = scratch.right;
  LoopCounts counts;
  left_store.kernel().WithChunks([&](auto width) {
    constexpr int kChunks = decltype(width)::value;
    if (!bucketed) {
      for (const PrefixPosting& a : left) {
        JoinOuter<kChunks>(
            left_store, right_store, a, right.data(), right.size(),
            [](size_t j) { return static_cast<uint32_t>(j); }, filter,
            threshold,
            [&] { return PrefixOwner(left_store, a, rank_limit); }, emit,
            survivors, &counts);
      }
      return;
    }
    for (const Bucket& bucket : scratch.buckets) {
      const SubPosting* inner = &rights[bucket.right_begin];
      for (uint32_t l = bucket.left_begin; l < bucket.left_end; ++l) {
        const SubPosting& outer = lefts[l];
        JoinOuter<kChunks>(
            left_store, right_store, left[outer.member], right.data(),
            bucket.right_end - bucket.right_begin,
            [inner](size_t j) { return inner[j].member; }, filter,
            threshold,
            [&] {
              return PrefixOwner(left_store, left[outer.member].row,
                                 outer.key, outer.second);
            },
            emit, survivors, &counts);
      }
    }
  });
  counts.AddTo(stats);
}

}  // namespace local_join_internal

/// Nested-loop join over all pairs of `group` (paper Section 4.1, and
/// Algorithm 1's compute_sim in the CL joining phase): each pair is
/// filtered on the key item's ranks and on the signature bound and
/// verified under its own raw threshold `threshold(a, b)`, a Threshold
/// like UniformThreshold. Large groups pair only postings that share a
/// second key item (local_join_internal::JoinSelf). A qualifying pair
/// is emitted only when the group owns it (PrefixOwner, with the
/// postings' `rank_limit`).
template <typename Threshold>
void NestedLoopJoin(const JoinStore& store,
                    const std::vector<PrefixPosting>& group,
                    const Threshold& threshold, bool position_filter,
                    int rank_limit, std::vector<ScoredPair>* out,
                    JoinStats* stats) {
  local_join_internal::JoinSelf(
      store, group, threshold,
      local_join_internal::KeyRankFilter{position_filter}, rank_limit,
      local_join_internal::kMinBucketedGroup, out, stats);
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
  local_join_internal::JoinSides(
      store, left, store, right, threshold,
      local_join_internal::KeyRankFilter{position_filter}, rank_limit,
      local_join_internal::kMinBucketedGroup,
      [&store, out](const PrefixPosting& a, const PrefixPosting& b,
                    uint32_t d) {
        out->push_back({MakeResultPair(store.id(a.row), store.id(b.row)), d});
      },
      stats);
}

/// VJ-style per-group join (paper Section 4). Every member of a group
/// holds the key item in its prefix, so every pair of members shares a
/// prefix item: a plain pair loop over the group yields exactly the
/// candidates an inverted index over the members' prefixes would, and
/// large groups pair only the members that share a second key item. Each
/// pair passes the position filter on the key item's ranks (where a rank
/// difference can fail it, PositionFilterCanFire) and the signature
/// bound before the ownership test and the kernel run on it. Emits the
/// qualifying pairs the group owns (PrefixOwner) into `out`, smaller id
/// first, so across all groups every pair is emitted once.
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

namespace local_join_internal {

/// LocalPrefixJoin with groups from `min_bucketed` postings bucketed, so
/// that BM_GroupJoin can time the plain and the bucketed loop on the
/// same groups.
void LocalPrefixJoinFrom(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         size_t min_bucketed, std::vector<ScoredPair>* out,
                         JoinStats* stats);

}  // namespace local_join_internal

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_LOCAL_JOIN_H_

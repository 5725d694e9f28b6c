#include "join/local_join.h"

#include <algorithm>

#include "ranking/footrule.h"

namespace rankjoin {

std::vector<std::pair<ItemId, PrefixPosting>> EmitPrefix(
    const JoinStore& store, RowIndex row, uint32_t raw_theta,
    PrefixMode mode, bool singleton) {
  std::vector<std::pair<ItemId, PrefixPosting>> out;
  out.reserve(static_cast<size_t>(store.k()));
  const ItemId* items = store.items(row);
  ForEachPrefixRank(store, row, raw_theta, mode, [&](uint16_t rank) {
    out.push_back({items[rank], PrefixPosting{row, rank, singleton}});
  });
  return out;
}

namespace local_join_internal {

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

namespace {

/// Appends the sub-postings of `postings` under `raw_theta` to `out`,
/// posting by posting.
void CollectSubPostings(const JoinStore& store,
                        const std::vector<PrefixPosting>& postings,
                        uint32_t raw_theta, std::vector<SubPosting>* out) {
  out->clear();
  for (size_t i = 0; i < postings.size(); ++i) {
    const SubKeys keys = SubKeysOf(store, postings[i], raw_theta);
    const ItemId* items = store.items(postings[i].row);
    const uint16_t* canonical = store.canonical(postings[i].row);
    for (int p = keys.key + 1; p < keys.end; ++p) {
      out->push_back(SubPosting{0, items[canonical[p]],
                                static_cast<uint32_t>(i),
                                static_cast<uint16_t>(keys.key),
                                static_cast<uint16_t>(p)});
    }
  }
}

/// Whether x's bucket comes before y's: by slot, then by item.
bool BucketBefore(const SubPosting& x, const SubPosting& y) {
  return x.slot < y.slot || (x.slot == y.slot && x.item < y.item);
}

/// The end of the bucket that starts at `begin`.
uint32_t BucketEnd(const std::vector<SubPosting>& entries, uint32_t begin) {
  uint32_t end = begin + 1;
  while (end < entries.size() && entries[end].item == entries[begin].item &&
         entries[end].slot == entries[begin].slot) {
    ++end;
  }
  return end;
}

/// Orders `entries` by (slot, item) under 2^bits slots.
void SortBySlot(std::vector<SubPosting>* entries, int bits) {
  thread_local std::vector<SubPosting> sorted;
  thread_local std::vector<uint32_t> starts;
  // Fibonacci hashing, as ItemSignature does: consecutive item ids land
  // in distant slots.
  constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;
  starts.assign((size_t{1} << bits) + 1, 0);
  for (SubPosting& e : *entries) {
    e.slot = static_cast<uint32_t>((uint64_t{e.item} * kFibonacci) >>
                                   (64 - bits));
    ++starts[e.slot + 1];
  }
  for (size_t s = 1; s < starts.size(); ++s) starts[s] += starts[s - 1];
  sorted.resize(entries->size());
  for (const SubPosting& e : *entries) sorted[starts[e.slot]++] = e;
  // A slot holds one item but for collisions; the insertion pass orders
  // those by item and leaves every run of one item in place.
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (!BucketBefore(sorted[i], sorted[i - 1])) continue;
    const SubPosting e = sorted[i];
    size_t j = i;
    for (; j > 0 && BucketBefore(e, sorted[j - 1]); --j) {
      sorted[j] = sorted[j - 1];
    }
    sorted[j] = e;
  }
  entries->swap(sorted);
}

/// Slot bits for `count` sub-postings: at least twice as many slots.
int SlotBits(size_t count) {
  int bits = 1;
  while ((size_t{1} << bits) < 2 * count) ++bits;
  return bits;
}

}  // namespace

bool BucketGroup(const JoinStore& left_store,
                 const std::vector<PrefixPosting>& left,
                 const JoinStore& right_store,
                 const std::vector<PrefixPosting>* right, uint32_t key_theta,
                 Scratch* scratch) {
  std::vector<SubPosting>& lefts = scratch->left;
  std::vector<SubPosting>& rights = scratch->right;
  std::vector<Bucket>& buckets = scratch->buckets;
  buckets.clear();
  CollectSubPostings(left_store, left, key_theta, &lefts);
  uint64_t pairs = 0;
  if (right == nullptr) {
    SortBySlot(&lefts, SlotBits(lefts.size()));
    for (uint32_t begin = 0, end; begin < lefts.size(); begin = end) {
      end = BucketEnd(lefts, begin);
      const uint64_t size = end - begin;
      if (size < 2) continue;
      pairs += size * (size - 1) / 2;
      buckets.push_back({begin, end, 0, 0});
    }
    const uint64_t n = left.size();
    return pairs < n * (n - 1) / 2;
  }
  CollectSubPostings(right_store, *right, key_theta, &rights);
  const int bits = SlotBits(std::max(lefts.size(), rights.size()));
  SortBySlot(&lefts, bits);
  SortBySlot(&rights, bits);
  uint32_t l = 0;
  uint32_t r = 0;
  while (l < lefts.size() && r < rights.size()) {
    if (BucketBefore(lefts[l], rights[r])) {
      l = BucketEnd(lefts, l);
    } else if (BucketBefore(rights[r], lefts[l])) {
      r = BucketEnd(rights, r);
    } else {
      const uint32_t l_end = BucketEnd(lefts, l);
      const uint32_t r_end = BucketEnd(rights, r);
      pairs += uint64_t{l_end - l} * (r_end - r);
      buckets.push_back({l, l_end, r, r_end});
      l = l_end;
      r = r_end;
    }
  }
  return pairs < uint64_t{left.size()} * right->size();
}

namespace {

/// No position filter: the pass of LocalPrefixJoin when no rank
/// difference can fail the filter, or the filter is off.
struct NoFilter {
  bool Fires(const PrefixPosting&, const PrefixPosting&, uint32_t) const {
    return false;
  }
};

}  // namespace

void LocalPrefixJoinFrom(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         size_t min_bucketed, std::vector<ScoredPair>* out,
                         JoinStats* stats) {
  if (group.size() < 2) return;
  const JoinStore& store = *options.store;
  const UniformThreshold threshold{options.raw_theta};
  const int rank_limit =
      PrefixRankLimit(store.k(), options.raw_theta, options.prefix_mode);
  if (options.position_filter &&
      PositionFilterCanFire(store.k(), options.raw_theta)) {
    JoinSelf(store, group, threshold, KeyRankFilter{}, rank_limit,
             min_bucketed, out, stats);
    return;
  }
  JoinSelf(store, group, threshold, NoFilter{}, rank_limit, min_bucketed, out,
           stats);
}

}  // namespace local_join_internal

void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats) {
  local_join_internal::LocalPrefixJoinFrom(
      group, options, local_join_internal::kMinBucketedGroup, out, stats);
}

void LocalNestedLoopJoin(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         std::vector<ScoredPair>* out, JoinStats* stats) {
  NestedLoopJoin(
      *options.store, group, UniformThreshold{options.raw_theta},
      options.position_filter,
      PrefixRankLimit(options.store->k(), options.raw_theta,
                      options.prefix_mode),
      out, stats);
}

void LocalNestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                           const std::vector<PrefixPosting>& right,
                           const LocalJoinOptions& options,
                           std::vector<ScoredPair>* out, JoinStats* stats) {
  NestedLoopJoinRS(
      *options.store, left, right, UniformThreshold{options.raw_theta},
      options.position_filter,
      PrefixRankLimit(options.store->k(), options.raw_theta,
                      options.prefix_mode),
      out, stats);
}

}  // namespace rankjoin

#include "join/local_join.h"

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

std::vector<uint32_t>& SurvivorBuffer() {
  thread_local std::vector<uint32_t> survivors;
  return survivors;
}

}  // namespace local_join_internal

void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats) {
  const size_t n = group.size();
  if (n < 2) return;
  const JoinStore& store = *options.store;
  const PairKernel& kernel = store.kernel();
  const uint32_t raw_theta = options.raw_theta;
  const int rank_limit =
      PrefixRankLimit(store.k(), raw_theta, options.prefix_mode);
  std::vector<uint32_t>& survivors = local_join_internal::SurvivorBuffer();
  survivors.resize(n);
  uint64_t near_pairs = 0;
  uint64_t verified = 0;
  uint64_t passed = 0;
  uint64_t repeats = 0;

  // Per outer row i, a branch-free first pass appends the inner rows j
  // that `far(j)` keeps and the signature bound does not rule out to
  // `survivors`; the kernel then runs on those only, and a qualifying
  // pair is emitted when the group owns it. `set_outer(i)` runs before
  // row i's first pass.
  auto pair_loop = [&](auto width, auto&& set_outer, auto&& far) {
    constexpr int kChunks = decltype(width)::value;
    const SignatureBound bound = kernel.signature_bound();
    for (size_t i = 0; i + 1 < n; ++i) {
      set_outer(i);
      const ItemSignature& a_signature = store.signature(group[i].row);
      size_t near = 0;
      size_t kept = 0;
      for (size_t j = i + 1; j < n; ++j) {
        const bool filtered = far(j);
        const bool close =
            bound(a_signature, store.signature(group[j].row)) <= raw_theta;
        survivors[kept] = static_cast<uint32_t>(j);
        near += !filtered;
        kept += !filtered & close;
      }
      near_pairs += near;
      verified += kept;
      if (kept == 0) continue;
      const PrefixOwner owner(store, group[i], rank_limit);
      const ItemId* a = store.items(group[i].row);
      for (size_t s = 0; s < kept; ++s) {
        const RowIndex b = group[survivors[s]].row;
        const uint32_t d = kernel.DistanceAt<kChunks>(a, store.items(b));
        if (d > raw_theta) continue;
        ++passed;
        if (owner.Repeats(store.items(b))) {
          ++repeats;
        } else {
          out->push_back(
              {MakeResultPair(store.id(group[i].row), store.id(b)), d});
        }
      }
    }
  };

  PrefixFilterKernel filter(kernel, raw_theta);
  if (!options.position_filter || !filter.can_fail()) {
    kernel.WithChunks([&](auto width) {
      pair_loop(width, [](size_t) {}, [](size_t) { return false; });
    });
  } else {
    // Prefix lanes of every member, all-ones on the ranks of its prefix
    // items (the rule EmitPrefix used to put it into this group).
    const size_t stride = static_cast<size_t>(kernel.stride());
    thread_local std::vector<uint32_t> prefix;
    prefix.assign(n * stride, 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t* lanes = &prefix[i * stride];
      ForEachPrefixRank(store, group[i].row, raw_theta, options.prefix_mode,
                        [lanes](uint16_t rank) { lanes[rank] = ~0u; });
    }
    kernel.WithChunks([&](auto width) {
      constexpr int kChunks = decltype(width)::value;
      pair_loop(
          width,
          [&](size_t i) {
            filter.SetOuter(store.items(group[i].row), &prefix[i * stride]);
          },
          [&](size_t j) {
            return filter.FiresAt<kChunks>(store.items(group[j].row),
                                           &prefix[j * stride]);
          });
    });
  }
  const uint64_t pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  stats->candidates += pairs;
  stats->position_filtered += pairs - near_pairs;
  stats->signature_filtered += near_pairs - verified;
  stats->verified += verified;
  stats->verify_passed += passed;
  stats->repeat_pairs += repeats;
}

void LocalNestedLoopJoin(const std::vector<PrefixPosting>& group,
                         const LocalJoinOptions& options,
                         std::vector<ScoredPair>* out, JoinStats* stats) {
  const uint32_t raw_theta = options.raw_theta;
  NestedLoopJoin(
      *options.store, group,
      [raw_theta](const PrefixPosting&, const PrefixPosting&) {
        return raw_theta;
      },
      options.position_filter,
      PrefixRankLimit(options.store->k(), raw_theta, options.prefix_mode),
      out, stats);
}

void LocalNestedLoopJoinRS(const std::vector<PrefixPosting>& left,
                           const std::vector<PrefixPosting>& right,
                           const LocalJoinOptions& options,
                           std::vector<ScoredPair>* out, JoinStats* stats) {
  const uint32_t raw_theta = options.raw_theta;
  NestedLoopJoinRS(
      *options.store, left, right,
      [raw_theta](const PrefixPosting&, const PrefixPosting&) {
        return raw_theta;
      },
      options.position_filter,
      PrefixRankLimit(options.store->k(), raw_theta, options.prefix_mode),
      out, stats);
}

}  // namespace rankjoin

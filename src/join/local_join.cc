#include "join/local_join.h"

#include "ranking/footrule.h"

namespace rankjoin {

std::vector<std::pair<ItemId, PrefixPosting>> EmitPrefix(
    const JoinStore& store, RowIndex row, int prefix_size, PrefixMode mode,
    bool singleton) {
  std::vector<std::pair<ItemId, PrefixPosting>> out;
  out.reserve(static_cast<size_t>(std::min(prefix_size, store.k())));
  const ItemId* items = store.items(row);
  ForEachPrefixRank(store, row, prefix_size, mode, [&](uint16_t rank) {
    out.push_back({items[rank], PrefixPosting{row, rank, singleton}});
  });
  return out;
}

void LocalPrefixJoin(const std::vector<PrefixPosting>& group,
                     const LocalJoinOptions& options,
                     std::vector<ScoredPair>* out, JoinStats* stats) {
  const size_t n = group.size();
  if (n < 2) return;
  const JoinStore& store = *options.store;
  const PairKernel& kernel = store.kernel();
  const uint32_t raw_theta = options.raw_theta;
  const uint64_t pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  uint64_t filtered = 0;
  uint64_t passed = 0;
  auto emit = [&](size_t i, size_t j, uint32_t distance) {
    ++passed;
    out->push_back({MakeResultPair(store.id(group[i].row),
                                   store.id(group[j].row)),
                    distance});
  };

  PrefixFilterKernel filter(kernel, raw_theta);
  if (!options.position_filter || !filter.can_fail()) {
    kernel.WithChunks([&](auto width) {
      constexpr int kChunks = decltype(width)::value;
      for (size_t i = 0; i + 1 < n; ++i) {
        const ItemId* a = store.items(group[i].row);
        for (size_t j = i + 1; j < n; ++j) {
          const uint32_t d =
              kernel.DistanceAt<kChunks>(a, store.items(group[j].row));
          if (d <= raw_theta) emit(i, j, d);
        }
      }
    });
  } else {
    // Prefix lanes of every member, all-ones on the ranks of its prefix
    // items (the rule EmitPrefix used to put it into this group).
    const size_t stride = static_cast<size_t>(kernel.stride());
    thread_local std::vector<uint32_t> prefix;
    prefix.assign(n * stride, 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t* lanes = &prefix[i * stride];
      ForEachPrefixRank(store, group[i].row, options.prefix_size,
                        options.prefix_mode,
                        [lanes](uint16_t rank) { lanes[rank] = ~0u; });
    }
    kernel.WithChunks([&](auto width) {
      constexpr int kChunks = decltype(width)::value;
      for (size_t i = 0; i + 1 < n; ++i) {
        filter.SetOuter(store.items(group[i].row), &prefix[i * stride]);
        for (size_t j = i + 1; j < n; ++j) {
          const PairVerdict v = filter.CheckAt<kChunks>(
              store.items(group[j].row), &prefix[j * stride]);
          if (v.filtered) {
            ++filtered;
          } else if (v.distance <= raw_theta) {
            emit(i, j, v.distance);
          }
        }
      }
    });
  }
  stats->candidates += pairs;
  stats->position_filtered += filtered;
  stats->verified += pairs - filtered;
  stats->verify_passed += passed;
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
      options.position_filter, out, stats);
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
      options.position_filter, out, stats);
}

}  // namespace rankjoin

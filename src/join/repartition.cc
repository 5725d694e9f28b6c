#include "join/repartition.h"

#include <algorithm>

#include "common/logging.h"

namespace rankjoin {
namespace {

/// One unit of CL-P chunk work (Algorithm 3): (left, right) sub-partitions
/// of one split posting list. A self-join unit leaves `right` empty (a
/// sub-partition is never empty); an R-S unit holds the lower chunk
/// index on the left.
using ChunkUnit =
    std::pair<std::vector<PrefixPosting>, std::vector<PrefixPosting>>;
/// A unit keyed by (list item, unit index), the spread's shuffle key.
using KeyedUnit = std::pair<std::pair<ItemId, uint32_t>, ChunkUnit>;

/// Merges per-partition stat slots into the caller's accumulator.
void MergeSlots(const std::vector<JoinStats>& slots, JoinStats* stats) {
  for (const JoinStats& s : slots) stats->MergeCounters(s);
}

/// Sub-partitions of at most `delta` postings a list of `size` splits into.
uint64_t NumChunks(uint64_t size, uint64_t delta) {
  return (size + delta - 1) / delta;
}

}  // namespace

minispark::Dataset<ScoredPair> JoinGroups(
    const minispark::Dataset<PostingGroup>& groups, LocalJoinFn local_join,
    JoinStats* stats) {
  std::vector<JoinStats> slots(
      static_cast<size_t>(groups.num_partitions()));
  minispark::Dataset<ScoredPair> result = groups.MapPartitionsWithIndex(
      [local_join, &slots](int index, const std::vector<PostingGroup>& part) {
        std::vector<ScoredPair> out;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const PostingGroup& group : part) {
          local_join(group.second, &out, &local);
        }
        return out;
      },
      "joinGroups");
  // Force the fused chain before harvesting the per-partition stat
  // slots: under lazy execution the local joins have not run until the
  // dataset is materialized. Force(), not Cache(): the result has a
  // single downstream consumer, so a cache pin would be wasted
  // materialization (MS007).
  result.Force();
  MergeSlots(slots, stats);
  return result;
}

std::vector<ScoredPair> JoinGroupsWithRepartitioning(
    const minispark::Dataset<PostingGroup>& groups, uint64_t delta,
    int num_partitions, LocalJoinFn local_join, LocalRsJoinFn rs_join,
    JoinStats* stats, bool adaptive) {
  if (delta == 0) {
    return JoinGroups(groups, std::move(local_join), stats).Collect();
  }

  // The driver measures the large lists on the index (partitions()
  // materializes it).
  uint64_t lists_split = 0;
  uint64_t pair_joins = 0;
  for (const auto& part : groups.partitions()) {
    for (const PostingGroup& g : part) {
      if (g.second.size() <= delta) continue;
      const uint64_t chunks = NumChunks(g.second.size(), delta);
      ++lists_split;
      pair_joins += chunks * (chunks - 1) / 2;
    }
  }

  // The CL-P / repartitioning knobs of Algorithm 3, published globally
  // (not per scope): how many oversized posting lists were split and how
  // many chunk-pair R-S joins that cost.
  stats->lists_repartitioned += lists_split;
  stats->chunk_pair_joins += pair_joins;
  groups.context()->counters().Add("repartition.lists_split", lists_split);
  groups.context()->counters().Add("repartition.chunk_pair_joins",
                                   pair_joins);
  // No list exceeds delta: the split, spread and chunk-join stages would
  // run on zero units.
  if (lists_split == 0) {
    return JoinGroups(groups, std::move(local_join), stats).Collect();
  }
  // Adaptive CL -> CL-P upgrade: the measured lists forced a split.
  if (adaptive) {
    groups.context()->counters().Add("repartition.skew_upgrades", 1);
  }
  // The measurement above materialized the index, so both splits below
  // read its partitions. The two results are collected one by one, and
  // each plan holds one of the splits, so a Cache() pin here would have
  // one consumer per plan (MS007).

  // Split the inverted index into small and large lists (I_<=delta and
  // I_>delta in Algorithm 3).
  minispark::Dataset<PostingGroup> small = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() <= delta; },
      "repartition/small");
  minispark::Dataset<PostingGroup> large = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() > delta; },
      "repartition/large");
  minispark::Dataset<ScoredPair> small_results =
      JoinGroups(small, local_join, stats);

  // Split each large list into sub-partitions of at most delta postings
  // and emit its work units: one self-join per sub-partition and one R-S
  // join per pair of them. Keyed by (item, unit), one shuffle spreads a
  // list's units over num_partitions * 2 partitions.
  minispark::Dataset<KeyedUnit> units = large.FlatMap(
      [delta](const PostingGroup& g) {
        const size_t num_chunks = NumChunks(g.second.size(), delta);
        std::vector<std::vector<PrefixPosting>> chunks(num_chunks);
        // Round-robin assignment keeps the sub-partitions balanced (the
        // paper assigns a random secondary key; the distribution of work
        // is the same and this stays deterministic).
        for (size_t i = 0; i < g.second.size(); ++i) {
          chunks[i % num_chunks].push_back(g.second[i]);
        }
        std::vector<KeyedUnit> out;
        out.reserve(num_chunks * (num_chunks + 1) / 2);
        for (size_t a = 0; a < num_chunks; ++a) {
          out.push_back({{g.first, static_cast<uint32_t>(out.size())},
                         {chunks[a], {}}});
          for (size_t b = a + 1; b < num_chunks; ++b) {
            out.push_back({{g.first, static_cast<uint32_t>(out.size())},
                           {chunks[a], chunks[b]}});
          }
        }
        return out;
      },
      "repartition/split");
  auto spread = minispark::PartitionByKey(
      units, std::max(1, num_partitions * 2), "repartition/spread");
  std::vector<JoinStats> unit_slots(
      static_cast<size_t>(spread.num_partitions()));
  minispark::Dataset<ScoredPair> chunk_results = spread.MapPartitionsWithIndex(
      [local_join, rs_join, &unit_slots](int index,
                                         const std::vector<KeyedUnit>& part) {
        std::vector<ScoredPair> out;
        JoinStats& local = unit_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [key, unit] : part) {
          if (unit.second.empty()) {
            local_join(unit.first, &out, &local);
          } else {
            rs_join(unit.first, unit.second, &out, &local);
          }
        }
        return out;
      },
      "repartition/chunkJoin");
  // Force (not Cache) before reading the stat slots: single consumer.
  chunk_results.Force();
  MergeSlots(unit_slots, stats);

  std::vector<ScoredPair> pairs = small_results.Collect();
  const std::vector<ScoredPair> chunk_pairs = chunk_results.Collect();
  pairs.insert(pairs.end(), chunk_pairs.begin(), chunk_pairs.end());
  return pairs;
}

}  // namespace rankjoin

#include "join/repartition.h"

#include <algorithm>

#include "common/logging.h"

namespace rankjoin {
namespace {

/// A sub-partition of one posting list (Algorithm 3): the secondary key
/// plus the postings assigned to it.
struct Chunk {
  uint32_t key = 0;
  std::vector<PrefixPosting> postings;
};

/// Merges per-partition stat slots into the caller's accumulator.
void MergeSlots(const std::vector<JoinStats>& slots, JoinStats* stats) {
  for (const JoinStats& s : slots) stats->MergeCounters(s);
}

}  // namespace

// Chunk crosses two shuffles (the composite-key spread and the chunk
// self-join) and is not trivially copyable, so it needs its own Serde
// for the spill path (see minispark/serde.h). Field-wise delegation:
// the postings vector takes the POD bulk path.
namespace minispark {

template <>
struct Serde<Chunk> {
  static size_t Size(const Chunk& c) {
    return Serde<uint32_t>::Size(c.key) +
           Serde<std::vector<PrefixPosting>>::Size(c.postings);
  }

  static void Write(const Chunk& c, std::string* out) {
    Serde<uint32_t>::Write(c.key, out);
    Serde<std::vector<PrefixPosting>>::Write(c.postings, out);
  }

  static void Read(const char** p, const char* end, Chunk* out) {
    Serde<uint32_t>::Read(p, end, &out->key);
    Serde<std::vector<PrefixPosting>>::Read(p, end, &out->postings);
  }
};

}  // namespace minispark

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

minispark::Dataset<ScoredPair> JoinGroupsWithRepartitioning(
    const minispark::Dataset<PostingGroup>& groups, uint64_t delta,
    int num_partitions, LocalJoinFn local_join, LocalRsJoinFn rs_join,
    JoinStats* stats, bool adaptive) {
  if (delta == 0) return JoinGroups(groups, std::move(local_join), stats);

  // The grouped index feeds both the small and the large split below —
  // materialize it once instead of re-running its pending chain per
  // consumer.
  groups.Cache();

  if (adaptive) {
    // Adaptive CL -> CL-P upgrade: measure the materialized posting
    // lists and only pay for the repartitioning machinery (three extra
    // shuffles) when one actually exceeds delta.
    uint64_t max_list = 0;
    for (const auto& part : groups.partitions()) {
      for (const PostingGroup& g : part) {
        max_list = std::max<uint64_t>(max_list, g.second.size());
      }
    }
    if (max_list <= delta) {
      return JoinGroups(groups, std::move(local_join), stats);
    }
    groups.context()->counters().Add("repartition.skew_upgrades", 1);
  }

  const int wide = std::max(1, num_partitions * 2);

  // Split the inverted index into small and large lists (I_<=delta and
  // I_>delta in Algorithm 3).
  minispark::Dataset<PostingGroup> small = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() <= delta; },
      "repartition/small");
  minispark::Dataset<PostingGroup> large = groups.Filter(
      [delta](const PostingGroup& g) { return g.second.size() > delta; },
      "repartition/large");
  const uint64_t lists_split = large.Count();
  stats->lists_repartitioned += lists_split;
  // The CL-P / repartitioning knobs of Algorithm 3, published globally
  // (not per scope): how many oversized posting lists were split and how
  // many chunk-pair R-S joins that cost (below).
  groups.context()->counters().Add("repartition.lists_split", lists_split);

  minispark::Dataset<ScoredPair> small_results =
      JoinGroups(small, local_join, stats);

  // Split each large list into sub-partitions of at most delta postings,
  // tagged with a secondary key.
  minispark::Dataset<std::pair<ItemId, Chunk>> chunks = large.FlatMap(
      [delta](const PostingGroup& g) {
        const size_t num_chunks =
            (g.second.size() + delta - 1) / static_cast<size_t>(delta);
        std::vector<std::pair<ItemId, Chunk>> out(num_chunks);
        for (size_t c = 0; c < num_chunks; ++c) {
          out[c].first = g.first;
          out[c].second.key = static_cast<uint32_t>(c);
        }
        // Round-robin assignment keeps the sub-partitions balanced (the
        // paper assigns a random secondary key; the distribution of work
        // is the same and this stays deterministic).
        for (size_t i = 0; i < g.second.size(); ++i) {
          out[i % num_chunks].second.postings.push_back(g.second[i]);
        }
        return out;
      },
      "repartition/split");
  // The chunks feed three shuffles (the composite-key spread plus both
  // sides of the chunk-pair self-join) — materialize them exactly once.
  chunks.Cache();

  // Self-join every sub-partition, spread over (item, secondary key).
  minispark::Dataset<std::pair<std::pair<ItemId, uint32_t>, Chunk>>
      by_composite = chunks.Map(
          [](const std::pair<ItemId, Chunk>& c) {
            return std::pair<std::pair<ItemId, uint32_t>, Chunk>(
                {c.first, c.second.key}, c.second);
          },
          "repartition/compositeKey");
  auto spread =
      minispark::PartitionByKey(by_composite, wide, "repartition/spread");
  std::vector<JoinStats> self_slots(
      static_cast<size_t>(spread.num_partitions()));
  minispark::Dataset<ScoredPair> chunk_self_results =
      spread.MapPartitionsWithIndex(
          [local_join, &self_slots](
              int index,
              const std::vector<
                  std::pair<std::pair<ItemId, uint32_t>, Chunk>>& part) {
            std::vector<ScoredPair> out;
            JoinStats& local = self_slots[static_cast<size_t>(index)];
            // Retry hygiene: a re-run attempt starts its stat slot from zero.
            local = JoinStats();
            for (const auto& kv : part) {
              local_join(kv.second.postings, &out, &local);
            }
            return out;
          },
          "repartition/chunkSelfJoin");
  // Force (not Cache) before reading the stat slots: single consumer.
  chunk_self_results.Force();
  MergeSlots(self_slots, stats);

  // Spark-style self-join of the sub-partitions on the item id; every
  // ordered pair of distinct secondary keys is processed by the R-S join.
  auto chunk_pairs =
      minispark::Join(chunks, chunks, wide, "repartition/chunkPairs");
  auto ordered_pairs = chunk_pairs.Filter(
      [](const std::pair<ItemId, std::pair<Chunk, Chunk>>& jp) {
        return jp.second.first.key < jp.second.second.key;
      },
      "repartition/orderPairs");
  const uint64_t pair_joins = ordered_pairs.Count();
  stats->chunk_pair_joins += pair_joins;
  groups.context()->counters().Add("repartition.chunk_pair_joins",
                                   pair_joins);
  std::vector<JoinStats> rs_slots(
      static_cast<size_t>(ordered_pairs.num_partitions()));
  minispark::Dataset<ScoredPair> chunk_rs_results =
      ordered_pairs.MapPartitionsWithIndex(
          [rs_join, &rs_slots](
              int index,
              const std::vector<std::pair<ItemId, std::pair<Chunk, Chunk>>>&
                  part) {
            std::vector<ScoredPair> out;
            JoinStats& local = rs_slots[static_cast<size_t>(index)];
            // Retry hygiene: a re-run attempt starts its stat slot from zero.
            local = JoinStats();
            for (const auto& jp : part) {
              rs_join(jp.second.first.postings, jp.second.second.postings,
                      &out, &local);
            }
            return out;
          },
          "repartition/chunkRsJoin");
  // Force (not Cache) before reading the stat slots: single consumer.
  chunk_rs_results.Force();
  MergeSlots(rs_slots, stats);

  return minispark::Union(
      minispark::Union(small_results, chunk_self_results,
                       "repartition/unionSelf"),
      chunk_rs_results, "repartition/unionRs");
}

}  // namespace rankjoin

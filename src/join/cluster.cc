#include "join/cluster.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "join/local_join.h"
#include "join/repartition.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"

namespace rankjoin {

namespace {

/// One direction of a theta_c pair in the clustering pass's CSR: the
/// partner's store row and the pair's raw distance.
struct Partner {
  RowIndex row;
  uint32_t distance;
};

}  // namespace

Clustering RunClusteringPhase(minispark::Context* ctx, const JoinStore& store,
                              const internal::SelfJoinSpec& spec,
                              JoinStats* stats) {
  Clustering clustering;
  const std::vector<ScoredPair> scored =
      internal::DistributedSelfJoin(ctx, store, spec, stats);

  // The theta_c pairs as a CSR over store rows, in both directions: the
  // partners of row r are partners[offsets[r] .. offsets[r + 1]).
  const size_t n = store.size();
  RANKJOIN_CHECK(scored.size() <= UINT32_MAX / 2);
  std::vector<uint32_t> offsets(n + 1, 0);
  for (const ScoredPair& sp : scored) {
    ++offsets[store.RowOf(sp.first.first) + 1];
    ++offsets[store.RowOf(sp.first.second) + 1];
  }
  for (size_t r = 1; r <= n; ++r) offsets[r] += offsets[r - 1];
  std::vector<Partner> partners(offsets[n]);
  std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (const ScoredPair& sp : scored) {
    const RowIndex a = store.RowOf(sp.first.first);
    const RowIndex b = store.RowOf(sp.first.second);
    partners[next[a]++] = {b, sp.second};
    partners[next[b]++] = {a, sp.second};
  }

  // Leader clustering (Fig. 3) with one role per ranking, in id order.
  // An unassigned ranking claims its unassigned partners as members, each
  // at its pair distance, and is their centroid; with none left it is a
  // singleton. Every smaller id is assigned before a ranking's turn, so a
  // member's id is larger than its centroid's.
  std::vector<RowIndex> by_id(n);
  std::iota(by_id.begin(), by_id.end(), RowIndex{0});
  std::sort(by_id.begin(), by_id.end(), [&store](RowIndex a, RowIndex b) {
    return store.id(a) < store.id(b);
  });
  std::vector<uint8_t> assigned(n, 0);
  uint64_t max_cluster = 0;
  for (const RowIndex row : by_id) {
    if (assigned[row]) continue;
    assigned[row] = 1;
    const RankingId leader = store.id(row);
    const size_t first = clustering.pairs.size();
    for (uint32_t e = offsets[row]; e < offsets[row + 1]; ++e) {
      const Partner& partner = partners[e];
      if (assigned[partner.row]) continue;
      assigned[partner.row] = 1;
      clustering.pairs.push_back(
          ClusterPair{leader, store.id(partner.row), partner.distance});
    }
    const size_t members = clustering.pairs.size() - first;
    if (members == 0) {
      clustering.singletons.push_back(leader);
    } else {
      clustering.centroids.push_back(leader);
      max_cluster = std::max<uint64_t>(max_cluster, members + 1);
    }
  }

  stats->clusters = clustering.centroids.size();
  stats->singletons = clustering.singletons.size();
  stats->cluster_members = clustering.pairs.size();
  // Paper Section 5 / Table 3: cluster count and membership-size shape
  // are the knobs that decide whether the centroid join pays off.
  // (DistributedSelfJoin already published the theta_c join's
  // candidate/prune counters under spec.counter_scope.)
  minispark::CounterRegistry& registry = ctx->counters();
  registry.Add("cl.clustering.clusters", stats->clusters);
  registry.Add("cl.clustering.singletons", stats->singletons);
  registry.Add("cl.clustering.members", stats->cluster_members);
  registry.Add("cl.clustering.max_cluster_size", max_cluster);
  return clustering;
}

std::vector<CentroidPair> RunCentroidJoin(
    minispark::Context* ctx, const JoinStore& store,
    const std::vector<RankingId>& centroids,
    const std::vector<RankingId>& singletons, const CentroidJoinSpec& spec,
    JoinStats* stats) {
  MixedThresholds thresholds;
  thresholds.mm = spec.raw_theta + 2 * spec.raw_theta_c;
  if (spec.singleton_optimization) {
    thresholds.ms = spec.raw_theta + spec.raw_theta_c;
    thresholds.ss = spec.raw_theta;
  } else {
    // Plain Lemma 5.1: one enlarged threshold for every centroid pair.
    thresholds.ms = thresholds.mm;
    thresholds.ss = thresholds.mm;
  }

  // Emit prefix postings for both centroid classes, tagged with their
  // type, then group by item (Algorithm 1's transform_and_emit). Each
  // class posts under the largest threshold of its pairs: mm for
  // centroids, ms for singletons (mm with the optimization off).
  // Completeness requires the singleton prefix to cover the (m, s) pair
  // threshold (see cluster.h).
  struct Tagged {
    RankingId id;
    bool singleton;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(centroids.size() + singletons.size());
  for (RankingId id : centroids) tagged.push_back({id, false});
  for (RankingId id : singletons) tagged.push_back({id, true});

  minispark::Dataset<Tagged> centroid_ds =
      minispark::Parallelize(ctx, std::move(tagged), spec.num_partitions);
  const JoinStore* store_ptr = &store;
  auto postings = centroid_ds.FlatMap(
      [store_ptr, thresholds](const Tagged& t) {
        return EmitPrefix(*store_ptr, store_ptr->RowOf(t.id),
                          t.singleton ? thresholds.ms : thresholds.mm,
                          PrefixMode::kOverlap, t.singleton);
      },
      "centroidJoin/prefix");
  minispark::Dataset<PostingGroup> groups = minispark::GroupByKey(
      postings, spec.num_partitions, "centroidJoin/groupByItem");

  const bool position_filter = spec.position_filter;
  // Algorithm 1's compute_sim: every pair under its own Lemma 5.3
  // threshold. Under kOverlap the ownership rule needs no prefix length,
  // so one rank limit (k) serves both classes' prefixes (PrefixOwner).
  LocalJoinFn local_join = [store_ptr, thresholds, position_filter](
                               const std::vector<PrefixPosting>& group,
                               std::vector<ScoredPair>* out, JoinStats* s) {
    NestedLoopJoin(*store_ptr, group, thresholds, position_filter,
                   store_ptr->k(), out, s);
  };
  LocalRsJoinFn rs_join = [store_ptr, thresholds, position_filter](
                              const std::vector<PrefixPosting>& left,
                              const std::vector<PrefixPosting>& right,
                              std::vector<ScoredPair>* out, JoinStats* s) {
    NestedLoopJoinRS(*store_ptr, left, right, thresholds, position_filter,
                     store_ptr->k(), out, s);
  };

  // Phase-local stats, published under the centroid join's own scope:
  // these are the candidates examined under the ENLARGED theta_o
  // thresholds of Lemma 5.1/5.3, the number the paper uses to argue the
  // cluster-level join is cheap relative to expansion.
  JoinStats phase_stats;
  // Each centroid pair arrives once: groups emit only the pairs they
  // own, under either class's prefix.
  const std::vector<ScoredPair> pairs = JoinGroupsWithRepartitioning(
      groups, spec.repartition_delta, spec.num_partitions, local_join,
      rs_join, &phase_stats, spec.adaptive_repartition);

  std::vector<CentroidPair> result;
  result.reserve(pairs.size());
  for (const ScoredPair& sp : pairs) {
    result.push_back({sp.first.first, sp.first.second, sp.second});
  }
  phase_stats.PublishCounters(&ctx->counters(), "cl.centroidJoin");
  ctx->counters().Add("cl.centroidJoin.pairs", result.size());
  stats->MergeCounters(phase_stats);
  return result;
}

}  // namespace rankjoin

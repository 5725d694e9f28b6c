#include "join/cluster.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "common/logging.h"
#include "join/local_join.h"
#include "join/repartition.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"

namespace rankjoin {
namespace {

/// Pair threshold under Lemma 5.3, selected by the singleton flags.
struct MixedThresholds {
  uint32_t mm = 0;  // both non-singleton: theta + 2*theta_c
  uint32_t ms = 0;  // mixed: theta + theta_c
  uint32_t ss = 0;  // both singleton: theta

  uint32_t operator()(const PrefixPosting& a, const PrefixPosting& b) const {
    if (a.singleton && b.singleton) return ss;
    if (a.singleton || b.singleton) return ms;
    return mm;
  }
};

}  // namespace

Clustering RunClusteringPhase(minispark::Context* ctx, const JoinStore& store,
                              const internal::SelfJoinSpec& spec,
                              JoinStats* stats) {
  Clustering clustering;
  std::vector<ScoredPair> scored =
      internal::DistributedSelfJoin(ctx, store, spec, stats);

  // Cluster formation (Fig. 3) with one role per ranking. The smaller id
  // of each qualifying pair is a centroid. A ranking that is no centroid
  // has only smaller-id partners, all of them centroids, and joins the
  // cluster of the closest one (ties to the smaller id). Per row: the
  // centroid flag and the closest smaller-id partner seen so far.
  constexpr uint32_t kNoHome = std::numeric_limits<uint32_t>::max();
  const size_t n = store.size();
  std::vector<uint8_t> is_centroid(n, 0);
  std::vector<RankingId> home(n, 0);
  std::vector<uint32_t> home_distance(n, kNoHome);
  for (const ScoredPair& sp : scored) {
    const auto [centroid, member] = sp.first;
    is_centroid[store.RowOf(centroid)] = 1;
    const RowIndex row = store.RowOf(member);
    if (sp.second < home_distance[row] ||
        (sp.second == home_distance[row] && centroid < home[row])) {
      home[row] = centroid;
      home_distance[row] = sp.second;
    }
  }

  // Centroids keep no memberships; every other ranking with a partner
  // is the member of its home cluster.
  std::vector<uint32_t> cluster_size(n, 0);
  for (RowIndex row = 0; row < n; ++row) {
    if (is_centroid[row] || home_distance[row] == kNoHome) continue;
    clustering.pairs.push_back(
        ClusterPair{home[row], store.id(row), home_distance[row]});
    ++cluster_size[store.RowOf(home[row])];
  }
  // Singletons: rankings with no theta_c partner, plus the centroids
  // whose partners all joined other clusters.
  uint64_t max_cluster = 0;
  for (RowIndex row = 0; row < n; ++row) {
    if (cluster_size[row] > 0) {
      clustering.centroids.push_back(store.id(row));
      max_cluster = std::max<uint64_t>(max_cluster, cluster_size[row] + 1);
    } else if (is_centroid[row] || home_distance[row] == kNoHome) {
      clustering.singletons.push_back(store.id(row));
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

  std::unordered_set<RankingId> singleton_set(singletons.begin(),
                                              singletons.end());
  std::vector<CentroidPair> result;
  for (const ScoredPair& sp : pairs) {
    CentroidPair cp;
    cp.ci = sp.first.first;
    cp.cj = sp.first.second;
    cp.distance = sp.second;
    cp.ci_singleton = singleton_set.count(cp.ci) > 0;
    cp.cj_singleton = singleton_set.count(cp.cj) > 0;
    result.push_back(cp);
  }
  phase_stats.PublishCounters(&ctx->counters(), "cl.centroidJoin");
  ctx->counters().Add("cl.centroidJoin.pairs", result.size());
  stats->MergeCounters(phase_stats);
  return result;
}

}  // namespace rankjoin

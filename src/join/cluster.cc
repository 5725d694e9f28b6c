#include "join/cluster.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
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

  // Cluster formation (Fig. 3): the smaller id of each qualifying pair
  // is the centroid, the larger one its member.
  clustering.pairs.reserve(scored.size());
  std::unordered_set<RankingId> centroid_ids;
  std::unordered_set<RankingId> in_any_pair;
  for (const ScoredPair& sp : scored) {
    const RankingId centroid = sp.first.first;
    const RankingId member = sp.first.second;
    clustering.pairs.push_back(ClusterPair{centroid, member, sp.second});
    centroid_ids.insert(centroid);
    in_any_pair.insert(centroid);
    in_any_pair.insert(member);
  }
  clustering.centroids.assign(centroid_ids.begin(), centroid_ids.end());
  std::sort(clustering.centroids.begin(), clustering.centroids.end());

  // Singletons: rankings with no theta_c-similar partner at all.
  for (RowIndex row = 0; row < store.size(); ++row) {
    if (in_any_pair.find(store.id(row)) == in_any_pair.end()) {
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
  uint64_t max_cluster = 0;
  if (registry.enabled()) {
    std::unordered_map<RankingId, uint64_t> sizes;
    for (const ClusterPair& cp : clustering.pairs) ++sizes[cp.centroid];
    for (const auto& [centroid, size] : sizes) {
      max_cluster = std::max(max_cluster, size + 1);  // + the centroid
    }
  }
  registry.Add("cl.clustering.max_cluster_size", max_cluster);
  return clustering;
}

Clustering RunRandomCentroidClustering(minispark::Context* ctx,
                                       const JoinStore& store,
                                       int num_centroids,
                                       uint32_t raw_theta_c, uint64_t seed,
                                       JoinStats* stats) {
  Clustering clustering;
  if (store.size() == 0) return clustering;

  // Pick centroids uniformly at random (without replacement).
  Rng rng(seed);
  std::vector<RowIndex> positions = store.Rows();
  rng.Shuffle(positions);
  const size_t centroid_count =
      std::min(static_cast<size_t>(std::max(1, num_centroids)), store.size());
  std::vector<RowIndex> centroid_rows(positions.begin(),
                                      positions.begin() + centroid_count);
  for (RowIndex row : centroid_rows) {
    clustering.centroids.push_back(store.id(row));
  }
  std::sort(clustering.centroids.begin(), clustering.centroids.end());

  // Assign every non-centroid to its closest centroid within theta_c —
  // the [27]-style assignment, broadcast + map over the dataset.
  minispark::Broadcast<std::vector<RowIndex>> centroids_bc =
      ctx->MakeBroadcast(std::move(centroid_rows), "cl/centroids");
  minispark::Dataset<RowIndex> rankings =
      minispark::Parallelize(ctx, store.Rows(), ctx->default_partitions());
  std::vector<JoinStats> slots(
      static_cast<size_t>(rankings.num_partitions()));
  const JoinStore* store_ptr = &store;
  auto assignments = rankings.MapPartitionsWithIndex(
      [store_ptr, centroids_bc, raw_theta_c, &slots](
          int index, const std::vector<RowIndex>& part) {
        const JoinStore& s = *store_ptr;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        // (centroid id, member id, distance); centroid id == member id
        // encodes "no centroid in range".
        std::vector<ClusterPair> out;
        for (RowIndex row : part) {
          const RankingId id = s.id(row);
          ClusterPair assignment{id, id, 0};
          uint32_t best = raw_theta_c + 1;
          for (RowIndex centroid : *centroids_bc) {
            if (s.id(centroid) == id) {
              // A centroid represents itself.
              assignment = ClusterPair{id, id, 0};
              best = 0;
              break;
            }
            ++local.candidates;
            ++local.verified;
            const uint32_t d = s.Distance(row, centroid);
            if (d < best) {
              ++local.verify_passed;
              assignment = ClusterPair{s.id(centroid), id, d};
              best = d;
              if (best == 0) break;
            }
          }
          out.push_back(assignment);
        }
        return out;
      },
      "randomClustering/assign");
  // Force the assignment stage before reading the per-partition stat
  // slots (lazy execution defers the lambda until materialization).
  assignments.Cache();
  JoinStats assign_stats;
  for (const JoinStats& s : slots) assign_stats.MergeCounters(s);
  assign_stats.PublishCounters(&ctx->counters(), "cl.randomClustering");
  stats->MergeCounters(assign_stats);

  std::unordered_set<RankingId> centroid_ids(clustering.centroids.begin(),
                                             clustering.centroids.end());
  for (const ClusterPair& assignment : assignments.Collect()) {
    if (centroid_ids.count(assignment.member) > 0) continue;  // centroid
    if (assignment.centroid == assignment.member) {
      // No centroid within theta_c: de-facto singleton (the random
      // strategy's weakness — this ranking may well have close
      // neighbors that simply were not drawn as centroids).
      clustering.singletons.push_back(assignment.member);
    } else {
      clustering.pairs.push_back(assignment);
    }
  }

  stats->clusters = clustering.centroids.size();
  stats->singletons = clustering.singletons.size();
  stats->cluster_members = clustering.pairs.size();
  minispark::CounterRegistry& registry = ctx->counters();
  registry.Add("cl.clustering.clusters", stats->clusters);
  registry.Add("cl.clustering.singletons", stats->singletons);
  registry.Add("cl.clustering.members", stats->cluster_members);
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
  minispark::Dataset<ScoredPair> pairs = JoinGroupsWithRepartitioning(
      groups, spec.repartition_delta, spec.num_partitions, local_join,
      rs_join, &phase_stats, spec.adaptive_repartition);

  std::unordered_set<RankingId> singleton_set(singletons.begin(),
                                              singletons.end());
  std::vector<CentroidPair> result;
  for (const ScoredPair& sp : pairs.Collect()) {
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

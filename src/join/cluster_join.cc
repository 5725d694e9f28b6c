#include "join/cluster_join.h"

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "join/cluster.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"

namespace rankjoin {
namespace internal {

Status ValidateClOptions(const ClOptions& options, int k) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (!(options.theta_c >= 0.0)) {
    return Status::InvalidArgument("theta_c must be >= 0");
  }
  if (options.theta_c > options.theta) {
    return Status::InvalidArgument(
        "theta_c must not exceed theta: cluster members are results "
        "themselves, so a larger clustering threshold would emit "
        "non-qualifying pairs");
  }
  const uint32_t enlarged = RawThreshold(options.theta, k) +
                            2 * RawThreshold(options.theta_c, k);
  if (enlarged >= MaxFootrule(k)) {
    return Status::InvalidArgument(
        "theta + 2*theta_c reaches the disjoint-pair distance; prefix "
        "filtering in the joining phase would be incomplete");
  }
  return Status::OK();
}

}  // namespace internal

namespace {

/// (member id, raw distance to its centroid) — the value type of the
/// cluster dataset keyed by centroid.
using MemberRec = std::pair<RankingId, uint32_t>;

/// Shared context for the expansion kernels.
struct ExpansionContext {
  const JoinStore* store = nullptr;
  uint32_t raw_theta = 0;
  bool upper_shortcut = true;
};

/// Processes one (candidate pair, known-distance bounds) according to
/// the metric filters of Section 5.3: prune when the triangle lower
/// bound exceeds theta, emit unverified when the upper bound already
/// qualifies, and otherwise verify unless the signature bound rules the
/// pair out.
void EmitWithTriangleBounds(const ExpansionContext& ectx, RankingId a,
                            RankingId b, int64_t lower_bound,
                            int64_t upper_bound,
                            std::vector<ResultPair>* out, JoinStats* stats) {
  if (lower_bound > static_cast<int64_t>(ectx.raw_theta)) {
    ++stats->triangle_filtered;
    return;
  }
  if (ectx.upper_shortcut &&
      upper_bound <= static_cast<int64_t>(ectx.raw_theta)) {
    ++stats->emitted_unverified;
    out->push_back(MakeResultPair(a, b));
    return;
  }
  const JoinStore& store = *ectx.store;
  const RowIndex row_a = store.RowOf(a);
  const RowIndex row_b = store.RowOf(b);
  if (store.kernel().signature_bound()(store.signature(row_a),
                                      store.signature(row_b)) >
      ectx.raw_theta) {
    ++stats->signature_filtered;
    return;
  }
  ++stats->verified;
  if (store.Distance(row_a, row_b) <= ectx.raw_theta) {
    ++stats->verify_passed;
    out->push_back(MakeResultPair(a, b));
  }
}

/// Merges the per-partition stat slots into the accumulator.
void MergeSlots(const std::vector<JoinStats>& slots, JoinStats* stats) {
  for (const JoinStats& s : slots) stats->MergeCounters(s);
}

/// Expansion phase (paper Section 5.3 / Algorithm 2): combines the
/// joining-phase centroid pairs R_j with the clustering-phase tuples R_c
/// to produce the final result set. A result pair (a, b) comes from the
/// R_j pair of its representatives (a member's centroid, or the ranking
/// itself), or from their shared cluster, through exactly one branch:
/// direct, intra-cluster, R_m,c in one direction, or R_m,m.
std::vector<ResultPair> RunExpansion(minispark::Context* ctx,
                                     const JoinStore& store,
                                     const Clustering& clustering,
                                     const std::vector<CentroidPair>& rj,
                                     uint32_t raw_theta, int num_partitions,
                                     bool upper_shortcut, JoinStats* stats) {
  ExpansionContext ectx{&store, raw_theta, upper_shortcut};
  // All expansion kernels below tally into this phase-local accumulator
  // (via per-partition slot vectors merged after each Cache() barrier);
  // it is merged into the caller's stats AND published to the counter
  // registry under "cl.expansion" at the end, so traces show the
  // triangle-inequality prune/shortcut effectiveness of Section 5.3 in
  // isolation.
  JoinStats expansion_stats;

  // R_c keyed by centroid.
  std::vector<std::pair<RankingId, MemberRec>> cluster_kv;
  cluster_kv.reserve(clustering.pairs.size());
  for (const ClusterPair& cp : clustering.pairs) {
    cluster_kv.push_back({cp.centroid, {cp.member, cp.distance}});
  }
  // The cluster-membership dataset is consumed by three wide operations
  // below (groupClusters and both membership joins) — pin it so it
  // materializes exactly once.
  minispark::Dataset<std::pair<RankingId, MemberRec>> clusters =
      minispark::Parallelize(ctx, std::move(cluster_kv), num_partitions);
  clusters.Cache();

  minispark::Dataset<CentroidPair> rj_ds =
      minispark::Parallelize(ctx, rj, num_partitions);

  // Direct results: R_s (both singleton, emitted as-is — their join
  // threshold was theta) plus every centroid pair within theta.
  minispark::Dataset<ResultPair> direct = rj_ds.FlatMap(
      [raw_theta](const CentroidPair& cp) {
        std::vector<ResultPair> out;
        if (cp.distance <= raw_theta) {
          out.push_back(MakeResultPair(cp.ci, cp.cj));
        }
        return out;
      },
      "expand/direct");

  // Intra-cluster results: (centroid, member) pairs qualify outright
  // (distance <= theta_c <= theta); member-member pairs are within
  // 2*theta_c by the triangle inequality and are emitted unverified when
  // the known distance sum already proves qualification.
  minispark::Dataset<std::pair<RankingId, std::vector<MemberRec>>>
      grouped_clusters = minispark::GroupByKey(clusters, num_partitions,
                                               "expand/groupClusters");
  std::vector<JoinStats> intra_slots(
      static_cast<size_t>(grouped_clusters.num_partitions()));
  minispark::Dataset<ResultPair> intra =
      grouped_clusters.MapPartitionsWithIndex(
          [ectx, &intra_slots](
              int index,
              const std::vector<std::pair<RankingId, std::vector<MemberRec>>>&
                  part) {
            std::vector<ResultPair> out;
            JoinStats& local = intra_slots[static_cast<size_t>(index)];
            // Retry hygiene: a re-run attempt starts its stat slot from zero.
            local = JoinStats();
            for (const auto& [centroid, members] : part) {
              for (const MemberRec& m : members) {
                out.push_back(MakeResultPair(centroid, m.first));
              }
              for (size_t i = 0; i + 1 < members.size(); ++i) {
                for (size_t j = i + 1; j < members.size(); ++j) {
                  const int64_t sum =
                      static_cast<int64_t>(members[i].second) +
                      members[j].second;
                  EmitWithTriangleBounds(ectx, members[i].first,
                                         members[j].first, /*lower_bound=*/0,
                                         sum, &out, &local);
                }
              }
            }
            return out;
          },
          "expand/intraCluster");
  // Stat slots are filled when the chain runs — force it first.
  // Force(), not Cache(): single downstream consumer (MS007).
  intra.Force();
  MergeSlots(intra_slots, &expansion_stats);

  // R_m: centroid pairs with at least one non-singleton side need to be
  // joined with the clusters (Algorithm 2 lines 3-8).
  minispark::Dataset<CentroidPair> rm = rj_ds.Filter(
      [](const CentroidPair& cp) {
        return !(cp.ci_singleton && cp.cj_singleton);
      },
      "expand/filterRm");
  // R_m feeds both directional re-keyings — materialize the filter once.
  rm.Cache();

  minispark::Dataset<std::pair<RankingId, CentroidPair>> rm_by_ci = rm.Map(
      [](const CentroidPair& cp) {
        return std::pair<RankingId, CentroidPair>(cp.ci, cp);
      },
      "expand/keyByCi");
  minispark::Dataset<std::pair<RankingId, CentroidPair>> rm_by_cj = rm.Map(
      [](const CentroidPair& cp) {
        return std::pair<RankingId, CentroidPair>(cp.cj, cp);
      },
      "expand/keyByCj");

  // Members of ci against cj (R_m,c, first direction).
  auto j1 = minispark::Join(rm_by_ci, clusters, num_partitions,
                            "expand/joinMembersCi");
  std::vector<JoinStats> j1_slots(static_cast<size_t>(j1.num_partitions()));
  minispark::Dataset<ResultPair> rm_c1 = j1.MapPartitionsWithIndex(
      [ectx, &j1_slots](
          int index,
          const std::vector<
              std::pair<RankingId, std::pair<CentroidPair, MemberRec>>>&
              part) {
        std::vector<ResultPair> out;
        JoinStats& local = j1_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [ci, rec] : part) {
          const CentroidPair& cp = rec.first;
          const MemberRec& m = rec.second;
          const int64_t dij = cp.distance;
          const int64_t dmi = m.second;
          EmitWithTriangleBounds(ectx, m.first, cp.cj,
                                 std::abs(dij - dmi), dij + dmi, &out,
                                 &local);
        }
        return out;
      },
      "expand/membersCi");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_c1.Force();
  MergeSlots(j1_slots, &expansion_stats);

  // Members of cj against ci (R_m,c, second direction — the "switched
  // centroids" join of Example 5.4).
  auto j2 = minispark::Join(rm_by_cj, clusters, num_partitions,
                            "expand/joinMembersCj");
  std::vector<JoinStats> j2_slots(static_cast<size_t>(j2.num_partitions()));
  minispark::Dataset<ResultPair> rm_c2 = j2.MapPartitionsWithIndex(
      [ectx, &j2_slots](
          int index,
          const std::vector<
              std::pair<RankingId, std::pair<CentroidPair, MemberRec>>>&
              part) {
        std::vector<ResultPair> out;
        JoinStats& local = j2_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [cj, rec] : part) {
          const CentroidPair& cp = rec.first;
          const MemberRec& m = rec.second;
          const int64_t dij = cp.distance;
          const int64_t dmj = m.second;
          EmitWithTriangleBounds(ectx, m.first, cp.ci,
                                 std::abs(dij - dmj), dij + dmj, &out,
                                 &local);
        }
        return out;
      },
      "expand/membersCj");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_c2.Force();
  MergeSlots(j2_slots, &expansion_stats);

  // Members of ci against members of cj (R_m,m): re-key the first join
  // by the second centroid and join with the clusters again.
  minispark::Dataset<std::pair<RankingId, std::pair<CentroidPair, MemberRec>>>
      j1_by_cj = j1.Map(
          [](const std::pair<RankingId,
                             std::pair<CentroidPair, MemberRec>>& rec) {
            return std::pair<RankingId, std::pair<CentroidPair, MemberRec>>(
                rec.second.first.cj, rec.second);
          },
          "expand/rekeyByCj");
  auto jmm = minispark::Join(j1_by_cj, clusters, num_partitions,
                             "expand/joinMembersBoth");
  std::vector<JoinStats> jmm_slots(
      static_cast<size_t>(jmm.num_partitions()));
  minispark::Dataset<ResultPair> rm_m = jmm.MapPartitionsWithIndex(
      [ectx, &jmm_slots](
          int index,
          const std::vector<std::pair<
              RankingId, std::pair<std::pair<CentroidPair, MemberRec>,
                                   MemberRec>>>& part) {
        std::vector<ResultPair> out;
        JoinStats& local = jmm_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [cj, rec] : part) {
          const CentroidPair& cp = rec.first.first;
          const MemberRec& mi = rec.first.second;  // member of ci
          const MemberRec& mj = rec.second;        // member of cj
          const int64_t dij = cp.distance;
          const int64_t lower = dij - static_cast<int64_t>(mi.second) -
                                static_cast<int64_t>(mj.second);
          const int64_t upper = dij + static_cast<int64_t>(mi.second) +
                                static_cast<int64_t>(mj.second);
          EmitWithTriangleBounds(ectx, mi.first, mj.first, lower, upper,
                                 &out, &local);
        }
        return out;
      },
      "expand/membersBoth");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_m.Force();
  MergeSlots(jmm_slots, &expansion_stats);

  // Union everything (Algorithm 2 line 9). No distinct: every ranking
  // has one role, so each result pair maps to one R_j pair (or one
  // cluster) and one of the branches above (DESIGN.md deviation 6).
  std::vector<ResultPair> collected =
      minispark::Union(
          minispark::Union(minispark::Union(direct, intra, "expand/u1"),
                           minispark::Union(rm_c1, rm_c2, "expand/u2"),
                           "expand/u3"),
          rm_m, "expand/u4")
          .Collect();
  expansion_stats.PublishCounters(&ctx->counters(), "cl.expansion");
  ctx->counters().Add("cl.expansion.result_pairs", collected.size());
  stats->MergeCounters(expansion_stats);
  return collected;
}

}  // namespace

static Result<JoinResult> RunClusterJoinImpl(minispark::Context* ctx,
                                             const RankingDataset& dataset,
                                             const ClOptions& options);

Result<JoinResult> RunClusterJoin(minispark::Context* ctx,
                                  const RankingDataset& dataset,
                                  const ClOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware(
      [&] { return RunClusterJoinImpl(ctx, dataset, options); });
}

static Result<JoinResult> RunClusterJoinImpl(minispark::Context* ctx,
                                             const RankingDataset& dataset,
                                             const ClOptions& options) {
  RANKJOIN_RETURN_NOT_OK(internal::ValidateClOptions(options, dataset.k));
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  Stopwatch total;
  JoinResult result;

  // Phase 1: Ordering (once, reused by both joins — Section 5).
  Stopwatch phase;
  const JoinStore store = internal::OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  internal::RunClusterPhases(ctx, store,
                             RawThreshold(options.theta, dataset.k),
                             RawThreshold(options.theta_c, dataset.k),
                             options, num_partitions, &result);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

namespace internal {

void RunClusterPhases(minispark::Context* ctx, const JoinStore& store,
                      uint32_t raw_theta, uint32_t raw_theta_c,
                      const ClOptions& options, int num_partitions,
                      JoinResult* result) {
  // Phase 2: Clustering with theta_c.
  Stopwatch phase;
  SelfJoinSpec cluster_spec;
  cluster_spec.raw_theta = raw_theta_c;
  cluster_spec.k = store.k();
  cluster_spec.num_partitions = num_partitions;
  cluster_spec.position_filter = options.position_filter;
  cluster_spec.prefix_mode = PrefixMode::kOverlap;
  cluster_spec.counter_scope = "cl.clustering";
  const Clustering clustering =
      RunClusteringPhase(ctx, store, cluster_spec, &result->stats);
  result->stats.clustering_seconds = phase.ElapsedSeconds();

  // Phase 3: Joining the centroids (Algorithm 1).
  phase.Reset();
  CentroidJoinSpec join_spec;
  join_spec.raw_theta = raw_theta;
  join_spec.raw_theta_c = raw_theta_c;
  join_spec.k = store.k();
  join_spec.num_partitions = num_partitions;
  join_spec.position_filter = options.position_filter;
  join_spec.singleton_optimization = options.singleton_optimization;
  join_spec.repartition_delta = options.repartition_delta;
  join_spec.adaptive_repartition = options.adaptive_repartition;
  std::vector<CentroidPair> rj =
      RunCentroidJoin(ctx, store, clustering.centroids, clustering.singletons,
                      join_spec, &result->stats);
  result->stats.joining_seconds = phase.ElapsedSeconds();

  // Phase 4: Expansion (Algorithm 2).
  phase.Reset();
  result->pairs = RunExpansion(ctx, store, clustering, rj, raw_theta,
                               num_partitions,
                               options.triangle_upper_shortcut,
                               &result->stats);
  result->stats.expansion_seconds = phase.ElapsedSeconds();

  result->stats.result_pairs = result->pairs.size();
  ctx->counters().Add("cl.result_pairs", result->stats.result_pairs);
}

}  // namespace internal
}  // namespace rankjoin

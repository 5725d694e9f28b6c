#include "join/cluster_join.h"

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <span>
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

/// One member of a cluster: (member id, raw distance to its centroid).
using MemberRec = std::pair<RankingId, uint32_t>;

/// R_c as a CSR index keyed by centroid store row: the members of the
/// centroid in row r, with their distances to it, are
/// members[offsets[r] .. offsets[r + 1]) in clustering order. Singletons
/// and members own empty ranges.
struct ClusterIndex {
  std::vector<uint32_t> offsets;
  std::vector<MemberRec> members;

  std::span<const MemberRec> MembersOf(RowIndex centroid_row) const {
    return {members.data() + offsets[centroid_row],
            members.data() + offsets[centroid_row + 1]};
  }
};

/// Counts R_c into the index on the driver (a stable counting sort by
/// centroid row).
ClusterIndex IndexClusters(const JoinStore& store,
                           const std::vector<ClusterPair>& pairs) {
  ClusterIndex index;
  index.offsets.assign(store.size() + 1, 0);
  for (const ClusterPair& cp : pairs) {
    ++index.offsets[store.RowOf(cp.centroid) + 1];
  }
  for (size_t r = 1; r < index.offsets.size(); ++r) {
    index.offsets[r] += index.offsets[r - 1];
  }
  std::vector<uint32_t> next(index.offsets.begin(), index.offsets.end() - 1);
  index.members.resize(pairs.size());
  for (const ClusterPair& cp : pairs) {
    index.members[next[store.RowOf(cp.centroid)]++] = {cp.member,
                                                       cp.distance};
  }
  return index;
}

/// The index's driver-side size, so MS003 sees the broadcast's real
/// footprint (found by argument-dependent lookup in MakeBroadcast).
size_t ApproxSize(const ClusterIndex& index) {
  return minispark::ApproxSize(index.offsets) +
         minispark::ApproxSize(index.members);
}

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

/// Expands one R_j pair (Algorithm 2 lines 1-8). Direct results: R_s
/// (both singleton, emitted as-is — their join threshold was theta) plus
/// every centroid pair within theta. Then the members of ci against cj
/// and of cj against ci (R_m,c; the second is the "switched centroids"
/// join of Example 5.4), and the members of ci against the members of cj
/// (R_m,m). A singleton owns no members, so an R_s pair stops after the
/// direct branch.
void ExpandCentroidPair(const ExpansionContext& ectx,
                        const ClusterIndex& clusters, const CentroidPair& cp,
                        std::vector<ResultPair>* out, JoinStats* stats) {
  if (cp.distance <= ectx.raw_theta) {
    out->push_back(MakeResultPair(cp.ci, cp.cj));
  }
  const std::span<const MemberRec> mis =
      clusters.MembersOf(ectx.store->RowOf(cp.ci));
  const std::span<const MemberRec> mjs =
      clusters.MembersOf(ectx.store->RowOf(cp.cj));
  const int64_t dij = cp.distance;
  for (const MemberRec& mi : mis) {
    const int64_t dmi = mi.second;
    EmitWithTriangleBounds(ectx, mi.first, cp.cj, std::abs(dij - dmi),
                           dij + dmi, out, stats);
  }
  for (const MemberRec& mj : mjs) {
    const int64_t dmj = mj.second;
    EmitWithTriangleBounds(ectx, mj.first, cp.ci, std::abs(dij - dmj),
                           dij + dmj, out, stats);
  }
  for (const MemberRec& mi : mis) {
    for (const MemberRec& mj : mjs) {
      const int64_t lower = dij - static_cast<int64_t>(mi.second) -
                            static_cast<int64_t>(mj.second);
      const int64_t upper = dij + static_cast<int64_t>(mi.second) +
                            static_cast<int64_t>(mj.second);
      EmitWithTriangleBounds(ectx, mi.first, mj.first, lower, upper, out,
                             stats);
    }
  }
}

/// Expands one centroid's own cluster: (centroid, member) pairs qualify
/// outright (distance <= theta_c <= theta); member-member pairs are
/// within 2*theta_c by the triangle inequality and are emitted
/// unverified when the known distance sum already proves qualification.
void ExpandCluster(const ExpansionContext& ectx, const ClusterIndex& clusters,
                   RankingId centroid, std::vector<ResultPair>* out,
                   JoinStats* stats) {
  const std::span<const MemberRec> members =
      clusters.MembersOf(ectx.store->RowOf(centroid));
  for (const MemberRec& m : members) {
    out->push_back(MakeResultPair(centroid, m.first));
  }
  for (size_t i = 0; i + 1 < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      const int64_t sum =
          static_cast<int64_t>(members[i].second) + members[j].second;
      EmitWithTriangleBounds(ectx, members[i].first, members[j].first,
                             /*lower_bound=*/0, sum, out, stats);
    }
  }
}

/// Expansion phase (paper Section 5.3 / Algorithm 2): combines the
/// joining-phase centroid pairs R_j with the clustering-phase tuples R_c
/// to produce the final result set. A result pair (a, b) comes from the
/// R_j pair of its representatives (a member's centroid, or the ranking
/// itself), or from their shared cluster, through exactly one branch:
/// direct, intra-cluster, R_m,c in one direction, or R_m,m.
///
/// R_c is built once on the driver and broadcast as a CSR index, so the
/// expansion is one narrow pass with no shuffle (DESIGN.md deviation 7)
/// over the unit indices 0 .. |R_j| + |centroids| - 1: unit u < |R_j|
/// expands the R_j pair rj[u], and every later unit one centroid's
/// cluster. The result holds the R_j results first, then the
/// intra-cluster ones (Algorithm 2 line 9's union).
std::vector<ResultPair> RunExpansion(minispark::Context* ctx,
                                     const JoinStore& store,
                                     const Clustering& clustering,
                                     const std::vector<CentroidPair>& rj,
                                     uint32_t raw_theta, int num_partitions,
                                     bool upper_shortcut, JoinStats* stats) {
  const ExpansionContext ectx{&store, raw_theta, upper_shortcut};
  const minispark::Broadcast<ClusterIndex> clusters = ctx->MakeBroadcast(
      IndexClusters(store, clustering.pairs), "cl/clusterIndex");
  const std::vector<RankingId>& centroids = clustering.centroids;
  RANKJOIN_CHECK(rj.size() + centroids.size() <= UINT32_MAX);
  std::vector<uint32_t> units(rj.size() + centroids.size());
  std::iota(units.begin(), units.end(), 0u);
  minispark::Dataset<uint32_t> unit_ds =
      minispark::Parallelize(ctx, std::move(units), num_partitions);
  std::vector<JoinStats> slots(static_cast<size_t>(unit_ds.num_partitions()));
  minispark::Dataset<ResultPair> expanded = unit_ds.MapPartitionsWithIndex(
      [ectx, clusters, &rj, &centroids, &slots](
          int index, const std::vector<uint32_t>& part) {
        std::vector<ResultPair> out;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const uint32_t unit : part) {
          if (unit < rj.size()) {
            ExpandCentroidPair(ectx, *clusters, rj[unit], &out, &local);
          } else {
            ExpandCluster(ectx, *clusters, centroids[unit - rj.size()], &out,
                          &local);
          }
        }
        return out;
      },
      "expand");

  // No distinct: every ranking has one role, so each result pair maps to
  // one R_j pair (or one cluster) and one of the branches above
  // (DESIGN.md deviation 6). The collect runs the pass, so the stat
  // slots are read after it. The phase-local accumulator is merged into
  // the caller's stats AND published under "cl.expansion", so traces
  // show the triangle inequality's prune/shortcut effectiveness
  // (Section 5.3) in isolation.
  std::vector<ResultPair> collected = expanded.Collect();
  JoinStats expansion_stats;
  for (const JoinStats& slot : slots) expansion_stats.MergeCounters(slot);
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
  // A failed stage or a Cancel()/deadline stop anywhere inside unwinds
  // here as a Status.
  return minispark::CatchJobFailure(
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

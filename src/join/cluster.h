#ifndef RANKJOIN_JOIN_CLUSTER_H_
#define RANKJOIN_JOIN_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "join/local_join.h"
#include "join/stats.h"
#include "join/vj.h"
#include "minispark/context.h"
#include "ranking/join_store.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// One clustering-phase result tuple: `member` belongs to the cluster
/// represented by `centroid`, a smaller-id theta_c partner, at their raw
/// pair distance <= raw_theta_c.
struct ClusterPair {
  RankingId centroid = 0;
  RankingId member = 0;
  uint32_t distance = 0;
};

/// Output of the clustering phase (paper Section 5.1). Unlike the
/// paper's overlapping clusters, every ranking has exactly one role: it
/// is a singleton, a centroid, or the member of one cluster. So the
/// expansion enumerates each result pair once and needs no distinct
/// (see DESIGN.md deviation 6).
struct Clustering {
  /// One (centroid, member, distance) tuple per member.
  std::vector<ClusterPair> pairs;
  /// Centroids of clusters with >= 1 member (the set C_m).
  std::vector<RankingId> centroids;
  /// Rankings with no unassigned theta_c partner at their turn (the set
  /// C_s of singleton-cluster representatives).
  std::vector<RankingId> singletons;
};

/// Runs the clustering phase: a distributed self-join of every ranking
/// in `store` with the clustering threshold (spec.raw_theta = raw
/// theta_c), followed by leader clustering over the collected pairs. In
/// id order, a ranking not yet assigned claims every theta_c partner not
/// yet assigned as a member, at the pair distance, and is the centroid
/// of that cluster; a ranking with no such partner is a singleton. So
/// every centroid has a member, and every member a larger id than its
/// centroid. Join work counters accumulate into `stats`.
Clustering RunClusteringPhase(minispark::Context* ctx, const JoinStore& store,
                              const internal::SelfJoinSpec& spec,
                              JoinStats* stats);

/// One joining-phase result: a qualifying centroid pair with its
/// distance.
struct CentroidPair {
  RankingId ci = 0;  // smaller id
  RankingId cj = 0;
  uint32_t distance = 0;
};

/// Pair threshold of the centroid join under Lemma 5.3, selected by the
/// postings' singleton flags (a Threshold of NestedLoopJoin).
struct MixedThresholds {
  uint32_t mm = 0;  // both non-singleton: theta + 2*theta_c
  uint32_t ms = 0;  // mixed: theta + theta_c
  uint32_t ss = 0;  // both singleton: theta

  uint32_t operator()(const PrefixPosting& a, const PrefixPosting& b) const {
    if (a.singleton && b.singleton) return ss;
    if (a.singleton || b.singleton) return ms;
    return mm;
  }
  /// The pair loops take sub-keys under mm, the largest: a larger
  /// threshold gives every posting more sub-keys, so a pair under ms or
  /// ss still meets in the bucket of its first two shared items.
  uint32_t largest() const { return mm; }
};

/// Configuration of the joining phase over centroids.
struct CentroidJoinSpec {
  /// Raw join threshold (theta).
  uint32_t raw_theta = 0;
  /// Raw clustering threshold (theta_c).
  uint32_t raw_theta_c = 0;
  int k = 0;
  int num_partitions = 1;
  bool position_filter = true;
  /// Lemma 5.3: join singleton centroids with the tighter thresholds.
  /// When false, every centroid is treated as non-singleton and the full
  /// theta + 2*theta_c threshold applies to all pairs (plain Lemma 5.1).
  bool singleton_optimization = true;
  /// Algorithm-3 partitioning threshold; 0 disables.
  uint64_t repartition_delta = 0;
  /// Engage repartitioning only when measured skew demands it (see
  /// ClOptions::adaptive_repartition).
  bool adaptive_repartition = false;
};

/// Joining phase (paper Section 5.2, Algorithm 1): joins the centroid
/// set C = C_m (prefix for theta + 2*theta_c) union C_s (shorter
/// prefix), generating pairs under the per-type thresholds of Lemma 5.3:
///
///   (m, m): d <= theta + 2*theta_c
///   (m, s): d <= theta + theta_c
///   (s, s): d <= theta
///
/// Deviation from the paper's Algorithm 1 (documented in DESIGN.md): the
/// singleton prefix is derived from theta + theta_c instead of theta.
/// Prefix filtering only guarantees a shared prefix token when BOTH
/// prefixes cover the pair's threshold; with get_prefix(theta) an (m, s)
/// pair at distance in (theta, theta + theta_c] can be missed.
std::vector<CentroidPair> RunCentroidJoin(
    minispark::Context* ctx, const JoinStore& store,
    const std::vector<RankingId>& centroids,
    const std::vector<RankingId>& singletons, const CentroidJoinSpec& spec,
    JoinStats* stats);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_CLUSTER_H_

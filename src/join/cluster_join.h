#ifndef RANKJOIN_JOIN_CLUSTER_JOIN_H_
#define RANKJOIN_JOIN_CLUSTER_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "join/stats.h"
#include "join/vj.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// How the clustering phase forms its clusters.
enum class ClusteringStrategy {
  /// The paper's method: a theta_c self-join; the smaller id of each
  /// qualifying pair becomes the centroid (Section 5.1).
  kJoinBased,
  /// The [22, 27]-style alternative the paper argues against: random
  /// centroids chosen up front, points assigned to the closest centroid
  /// within theta_c. Exposed for the ablation benchmark.
  kRandomCentroids,
};

/// Configuration of the clustering-based join (paper Section 5).
struct ClOptions {
  /// Normalized join threshold in [0, 1).
  double theta = 0.2;
  /// Normalized clustering threshold; the paper recommends values below
  /// 0.05 and uses 0.03 throughout (Fig. 9).
  double theta_c = 0.03;
  /// Shuffle partitions; -1 uses the context default.
  int num_partitions = -1;
  bool position_filter = true;
  /// Reorder once, up front, for both the clustering and joining phases
  /// (paper Section 5, "Ordering").
  bool reorder_by_frequency = true;
  /// Kernel used by the clustering-phase self-join; the joining phase
  /// always walks posting lists with iterators (nested loop), the
  /// Spark-friendly choice the CL/CL-P algorithms are built on.
  LocalAlgorithm clustering_algorithm = LocalAlgorithm::kPrefixIndex;
  /// Lemma 5.3 singleton thresholds in the joining phase.
  bool singleton_optimization = true;
  /// Expansion: emit candidates whose triangle upper bound already
  /// guarantees d <= theta without computing the distance.
  bool triangle_upper_shortcut = true;
  /// Algorithm-3 partitioning threshold for the joining phase; > 0
  /// turns CL into CL-P. 0 disables repartitioning.
  uint64_t repartition_delta = 0;
  /// Engage Algorithm-3 repartitioning only when the measured largest
  /// posting list exceeds delta — CL upgrades itself to CL-P mid-job
  /// (see JoinGroupsWithRepartitioning's adaptive mode). Requires
  /// repartition_delta > 0.
  bool adaptive_repartition = false;
  /// Resolve overlapping cluster memberships: keep only the closest
  /// centroid per member (ties by smaller centroid id) before the
  /// expansion. The paper keeps clusters overlapping, arguing that
  /// resolving the overlap "would negatively impact the performance of
  /// the clustering and the expansion phase" (Section 5.1); this toggle
  /// makes that claim measurable. Correctness is unaffected: every
  /// member keeps one representative, and cross-cluster pairs are
  /// recovered through the joining phase as before.
  bool resolve_overlaps = false;
  /// Clustering phase variant; kJoinBased is the paper's algorithm.
  ClusteringStrategy clustering_strategy = ClusteringStrategy::kJoinBased;
  /// kRandomCentroids only: number of random centroids (0 picks
  /// dataset_size / 10, a generous guess).
  int random_centroids = 0;
  /// kRandomCentroids only: RNG seed for the centroid draw.
  uint64_t random_centroid_seed = 1234;
};

/// Runs the four-phase clustering join (Ordering, Clustering, Joining,
/// Expansion — paper Fig. 2). With repartition_delta > 0 this is the
/// CL-P algorithm; otherwise CL.
Result<JoinResult> RunClusterJoin(minispark::Context* ctx,
                                  const RankingDataset& dataset,
                                  const ClOptions& options);

namespace internal {
/// Validates CL parameter combinations (theta_c <= theta, enlarged
/// threshold still below the disjoint-pair distance, ...).
Status ValidateClOptions(const ClOptions& options, int k);
}  // namespace internal

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_CLUSTER_JOIN_H_

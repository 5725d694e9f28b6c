#ifndef RANKJOIN_JOIN_CLUSTER_JOIN_H_
#define RANKJOIN_JOIN_CLUSTER_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "join/stats.h"
#include "join/vj.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin {

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

/// Phases 2-4 of the clustering join (clustering, joining, expansion)
/// over the store the ordering phase built, under raw thresholds of the
/// store's distance: RunClusterJoin's Footrule thresholds or
/// RunJaccardClusterJoin's |A xor B| ones. Lemmas 5.1 and 5.3 hold for
/// both, since both raw distances are metrics, as long as
/// raw_theta + 2 * raw_theta_c stays below the kernel's max_distance().
/// Reads every field of `options` but theta, theta_c and
/// reorder_by_frequency, and fills `result` but for its ordering and
/// total times.
void RunClusterPhases(minispark::Context* ctx, const JoinStore& store,
                      uint32_t raw_theta, uint32_t raw_theta_c,
                      const ClOptions& options, int num_partitions,
                      JoinResult* result);
}  // namespace internal

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_CLUSTER_JOIN_H_

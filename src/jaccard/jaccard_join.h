#ifndef RANKJOIN_JACCARD_JACCARD_JOIN_H_
#define RANKJOIN_JACCARD_JACCARD_JOIN_H_

#include "common/status.h"
#include "join/stats.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Options for the Jaccard-distance set similarity joins (the paper's
/// Section 8 outlook). They run the Footrule pipelines on a join store
/// whose kernel computes |A xor B| = 2(k - overlap) (Distance::kJaccard),
/// under the raw threshold 2(k - JaccardMinOverlap(theta, k)), which
/// keeps exactly the pairs within Jaccard distance theta.
///
/// The input RankingDataset is interpreted as a collection of size-k
/// sets; item positions are ignored.
struct JaccardJoinOptions {
  /// Jaccard distance threshold in [0, 1).
  double theta = 0.2;
  /// Clustering threshold for the CL variant; must satisfy
  /// theta + 2*theta_c < 1 so the enlarged centroid threshold stays
  /// below the disjoint-set distance.
  double theta_c = 0.05;
  /// Shuffle partitions; -1 uses the context default.
  int num_partitions = -1;
  /// Reorder items by ascending global frequency before prefixing.
  bool reorder_by_frequency = true;
  /// Lemma 5.3 analog: join singleton centroids with tighter thresholds.
  bool singleton_optimization = true;
  /// Expansion: emit pairs whose triangle upper bound already
  /// qualifies without computing their distance.
  bool triangle_upper_shortcut = true;
};

/// Exact O(n^2) Jaccard reference join (ground truth for tests).
JoinResult JaccardBruteForceJoin(const RankingDataset& dataset, double theta);

/// Distributed prefix-filtering self-join under Jaccard distance: the VJ
/// self-join on unit rank weights, without the position filter (sets
/// are unordered).
Result<JoinResult> RunJaccardVjJoin(minispark::Context* ctx,
                                    const RankingDataset& dataset,
                                    const JaccardJoinOptions& options);

/// The CL framework under Jaccard distance: CL's clustering, centroid
/// join and expansion phases under the raw thresholds, so the centroids
/// join under raw theta + 2 * raw theta_c (mixed thresholds for
/// singletons). Valid because |A xor B| is a metric.
Result<JoinResult> RunJaccardClusterJoin(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         const JaccardJoinOptions& options);

}  // namespace rankjoin

#endif  // RANKJOIN_JACCARD_JACCARD_JOIN_H_

#ifndef RANKJOIN_JOIN_VSMART_H_
#define RANKJOIN_JOIN_VSMART_H_

#include "common/status.h"
#include "join/stats.h"
#include "minispark/context.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// V-SMART-style baseline (Metwally & Faloutsos [17], discussed in the
/// paper's Section 2): instead of filtering candidates with prefixes,
/// the similarity is decomposed over common elements and accumulated
/// with a distributed aggregation.
///
/// The adaptation to Footrule rests on an exact decomposition: with
/// ranks 0..k-1 and missing rank k,
///
///   F(a, b) = k(k+1) - sum over common items i of phi(a(i), b(i)),
///   phi(ra, rb) = (k - ra) + (k - rb) - |ra - rb|  >=  0,
///
/// because each side's own ranks contribute a constant k(k+1)/2. The
/// pipeline therefore needs NO verification step: it emits a partial
/// phi for every pair of rankings sharing an item (full inverted index,
/// no prefix), sums the partials per pair, and keeps pairs with
/// sum >= k(k+1) - raw_theta.
///
/// This reproduces the weakness the experimental survey [10] found —
/// the quadratic per-posting-list pair emission over ALL items makes
/// the intermediate data explode on skewed data, which is why the
/// paper adopts VJ as its competitor. See bench/related_vsmart.
struct VSmartOptions {
  /// Normalized distance threshold in [0, 1).
  double theta = 0.2;
  /// Shuffle partitions; -1 uses the context default.
  int num_partitions = -1;
};

/// Runs the V-SMART-style join. Exact (equals brute force).
Result<JoinResult> RunVSmartJoin(minispark::Context* ctx,
                                 const RankingDataset& dataset,
                                 const VSmartOptions& options);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_VSMART_H_

#ifndef RANKJOIN_JOIN_VJ_H_
#define RANKJOIN_JOIN_VJ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/local_join.h"
#include "join/stats.h"
#include "minispark/context.h"
#include "ranking/join_store.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Per-posting-list join kernel (paper Sections 4 and 4.1).
enum class LocalAlgorithm {
  /// Prefix join per group (VJ): every pair of the group, with the
  /// position filter on the key item's ranks where it can fire.
  kPrefixIndex,
  /// Iterator-style nested loop with the position filter (VJ-NL).
  kNestedLoop,
};

/// Configuration of the VJ adaptation to top-k rankings.
struct VjOptions {
  /// Normalized distance threshold in [0, 1).
  double theta = 0.1;
  /// Shuffle partitions; -1 uses the context default.
  int num_partitions = -1;
  /// Apply the rank-difference position filter.
  bool position_filter = true;
  /// Reorder items by ascending global frequency before prefixing
  /// (paper: major gains on skewed data; implies overlap prefixes).
  bool reorder_by_frequency = true;
  PrefixMode prefix_mode = PrefixMode::kOverlap;
  LocalAlgorithm local_algorithm = LocalAlgorithm::kPrefixIndex;
  /// Partitioning threshold delta of Algorithm 3; 0 disables
  /// repartitioning of oversized posting lists.
  uint64_t repartition_delta = 0;
  /// Only engage Algorithm-3 repartitioning after measuring the
  /// materialized posting lists and finding one larger than delta (see
  /// JoinGroupsWithRepartitioning's adaptive mode). Requires
  /// repartition_delta > 0.
  bool adaptive_repartition = false;
  /// Namespace for the filter-effectiveness counters the pipeline
  /// publishes into Context::counters() (trace_level >= kCounters):
  /// "<scope>.candidates", "<scope>.verified", ... VJ-NL overrides this
  /// to "vj_nl" so the two variants stay distinguishable in one trace.
  std::string counter_scope = "vj";
};

/// Runs the Vernica-Join adaptation for top-k rankings (paper Section 4)
/// as a minispark pipeline: frequency ordering, prefix flat-map,
/// group-by-item, per-group local join (each pair from the one group
/// that owns it).
Result<JoinResult> RunVjJoin(minispark::Context* ctx,
                             const RankingDataset& dataset,
                             const VjOptions& options);

namespace internal {

/// Validates option/threshold combinations shared by the pipelines.
Status ValidateVjOptions(const VjOptions& options, int k);

/// Ordering phase: counts item frequencies and canonicalizes every
/// ranking, all as dataflow stages, into the job's JoinStore (rows in
/// input order), whose kernel computes `distance`. Stage metrics
/// accumulate into the context.
JoinStore OrderDataset(minispark::Context* ctx, const RankingDataset& dataset,
                       bool reorder_by_frequency, int num_partitions,
                       Distance distance = Distance::kFootrule);

/// Spec for a distributed prefix-filter self-join over already-ordered
/// rankings (reused by the CL clustering phase, which joins the whole
/// dataset with theta_c, and by the VJ driver).
struct SelfJoinSpec {
  uint32_t raw_theta = 0;
  int k = 0;
  int num_partitions = 1;
  bool position_filter = true;
  PrefixMode prefix_mode = PrefixMode::kOverlap;
  LocalAlgorithm local_algorithm = LocalAlgorithm::kPrefixIndex;
  uint64_t repartition_delta = 0;
  /// Engage repartitioning only when measured skew demands it (see
  /// VjOptions::adaptive_repartition).
  bool adaptive_repartition = false;
  /// Counter namespace (see VjOptions::counter_scope); the CL clustering
  /// phase sets its own scope here.
  std::string counter_scope = "selfJoin";
};

/// Distributed self-join over every row of `store`. Returns each scored
/// pair with raw distance <= spec.raw_theta once.
std::vector<ScoredPair> DistributedSelfJoin(minispark::Context* ctx,
                                            const JoinStore& store,
                                            const SelfJoinSpec& spec,
                                            JoinStats* stats);

}  // namespace internal
}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_VJ_H_

#ifndef RANKJOIN_JOIN_STATS_H_
#define RANKJOIN_JOIN_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "minispark/trace.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// An unordered result pair, stored with the smaller id first.
using ResultPair = std::pair<RankingId, RankingId>;

/// Normalizes (a, b) so the smaller id comes first.
constexpr ResultPair MakeResultPair(RankingId a, RankingId b) {
  return a < b ? ResultPair{a, b} : ResultPair{b, a};
}

/// A result pair annotated with its raw distance (the store kernel's:
/// Footrule, or |A xor B| in the Jaccard joins). Join stages
/// emit these so downstream phases (cluster formation, expansion
/// filters) can reuse the distance without recomputation.
using ScoredPair = std::pair<ResultPair, uint32_t>;

/// Work counters accumulated by the join algorithms. Counter semantics
/// are shared across algorithms so that benchmark tables can compare
/// pruning effectiveness directly.
///
/// Concurrency contract (see common/sync.h for the engine's annotated
/// primitives): a JoinStats is single-owner plain data — each task
/// accumulates into its own per-partition instance and the driver
/// merges after the stage barrier, so there is deliberately no mutex
/// here and nothing for GUARDED_BY to protect. Cross-thread publication
/// happens only through PublishCounters into the (internally
/// synchronized) CounterRegistry.
struct JoinStats {
  /// Candidate pairs produced by the index / nested loop before any
  /// distance computation (after prefix grouping, before filters). A
  /// prefix-join group that runs in (x, y) buckets counts the pairs of
  /// its buckets, so a pair that shares several second key items counts
  /// once per bucket.
  uint64_t candidates = 0;
  /// Candidates removed by the position filter.
  uint64_t position_filtered = 0;
  /// Candidates removed by triangle-inequality bounds (CL expansion).
  uint64_t triangle_filtered = 0;
  /// Candidates that passed the other filters but whose item signatures
  /// already prove a distance above the threshold (SignatureBound), so
  /// the kernel did not run on them.
  uint64_t signature_filtered = 0;
  /// Pairs whose distance was actually computed (verification calls).
  uint64_t verified = 0;
  /// Verification calls whose distance qualified (<= theta). The
  /// difference verified - verify_passed is the price of imperfect
  /// filtering. A prefix join verifies only the pairs a group owns, so
  /// this is the number of pairs it emits.
  uint64_t verify_passed = 0;
  /// Candidates a prefix join's posting group passed the filters for
  /// but skipped before the kernel, because the pair belongs to the
  /// group of an earlier shared prefix item or, in a bucketed group, to
  /// the bucket of an earlier second shared item (PrefixOwner). In a
  /// prefix join candidates = position_filtered + signature_filtered +
  /// repeat_pairs + verified.
  uint64_t repeat_pairs = 0;
  /// Pairs emitted without a distance computation because a metric upper
  /// bound already guaranteed qualification (CL expansion shortcut).
  uint64_t emitted_unverified = 0;
  /// Final distinct result pairs.
  uint64_t result_pairs = 0;

  /// CL-specific: clusters with >= 2 elements / singleton clusters /
  /// members (each ranking is the member of at most one cluster).
  uint64_t clusters = 0;
  uint64_t singletons = 0;
  uint64_t cluster_members = 0;

  /// CL-P-specific: posting lists split / sub-partition R-S joins run.
  uint64_t lists_repartitioned = 0;
  uint64_t chunk_pair_joins = 0;

  /// Wall-clock seconds per pipeline phase (zero when not applicable).
  double ordering_seconds = 0;
  double clustering_seconds = 0;
  double joining_seconds = 0;
  double expansion_seconds = 0;
  double total_seconds = 0;

  /// Adds the counters (not the timings) of `other` into this object.
  void MergeCounters(const JoinStats& other);

  /// Publishes the (nonzero-semantics: all, including zeros, for
  /// structurally stable snapshots) filter-effectiveness counters into
  /// `registry` under `<prefix>.<counter>`. No-op when the registry is
  /// null or disabled (trace_level kOff). The pipelines call this once
  /// per phase with phase-local stats — counters are atomics, but the
  /// hot loops only ever touch per-partition JoinStats slots.
  void PublishCounters(minispark::CounterRegistry* registry,
                       const std::string& prefix) const;

  /// Multi-line human-readable dump.
  std::string ToString() const;
};

/// The output of a similarity self-join: the qualifying pairs (each once,
/// smaller id first, unsorted) plus work statistics.
struct JoinResult {
  std::vector<ResultPair> pairs;
  JoinStats stats;
  /// Serialized JoinPlan of the cost-based planner (JoinPlan::ToJson)
  /// when the run went through Algorithm::kAuto; empty for explicit
  /// algorithm choices. Lives here as an opaque string so join/ does not
  /// depend on the plan/ layer.
  std::string plan_json;
  /// The planner's estimated cost of the strategy it chose, in the cost
  /// model's abstract work units (~1 unit = one pair verification;
  /// deliberately NOT seconds). 0 for explicit algorithm choices.
  /// Paired with the measured makespan in bench metrics-JSON rows, this
  /// is the predict-vs-actual record the cost-model refit consumes.
  double predicted_cost = 0;
};

/// Sorts pairs by (first, second); convenient canonical form for
/// comparisons in tests and benches.
void SortPairs(std::vector<ResultPair>* pairs);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_STATS_H_

#ifndef RANKJOIN_MINISPARK_METRICS_H_
#define RANKJOIN_MINISPARK_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "minispark/telemetry.h"

namespace rankjoin::minispark {

/// Per-operator tallies inside one physical stage, aggregated across the
/// stage's tasks. Populated when Context::Options::trace_level is at
/// least kCounters: every narrow op fused into the stage (including ops
/// pulled into a shuffle write) reports how many elements entered and
/// left it, attributing the chain's filtering/fan-out behavior op by op.
struct OpMetrics {
  /// Context-unique id of the logical op (OpTag::id; also stamped on the
  /// op's PlanNode so ExplainDot can annotate observed counts).
  uint64_t op_id = 0;
  std::string op;    ///< logical op kind ("map", "filter", ...)
  std::string name;  ///< user-facing label
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Wall-clock seconds spent inside the op's per-element step, summed
  /// across tasks (0 unless trace_level = kTimers). INCLUSIVE of
  /// downstream fused ops — push-based sinks nest, so an upstream op's
  /// time contains its consumers'.
  double seconds = 0.0;
};

/// Per-stage execution record. One physical stage executes a fused chain
/// of logical transformations over all partitions (one task per
/// partition); with fusion disabled every logical op is its own stage.
struct StageMetrics {
  std::string name;
  /// Wall-clock seconds of each task (index = partition).
  std::vector<double> task_seconds;
  /// Records crossing a shuffle boundary into this stage (0 for narrow
  /// transformations such as map/filter).
  uint64_t shuffle_records = 0;
  /// Approximate payload bytes of those records.
  uint64_t shuffle_bytes = 0;
  /// Elements in the largest output partition — the skew signal the
  /// paper's repartitioning (Section 6) attacks.
  uint64_t max_partition_size = 0;
  /// "+"-joined logical ops this physical stage executed (e.g.
  /// "map+filter+flatMap", or "flatMap+shuffleWrite" when a narrow chain
  /// was pulled into a shuffle's map side).
  std::string fused_ops;
  /// Elements/bytes this stage materialized into partition storage.
  /// Elements that only stream through a fused chain are not counted —
  /// the difference against unfused execution is the fusion win.
  uint64_t materialized_elements = 0;
  uint64_t materialized_bytes = 0;
  /// Serialized bytes this stage's shuffle writers spilled to temp files
  /// (0 when the whole shuffle stayed resident; see shuffle.h).
  uint64_t spilled_bytes = 0;
  /// Spill events (one run = one flush of a map task's resident buckets).
  uint64_t spilled_runs = 0;
  /// Per-operator breakdown of the fused chain this stage executed, in
  /// plan-construction (= pipeline) order. Empty when tracing is off or
  /// the stage ran no traced narrow ops.
  std::vector<OpMetrics> op_metrics;
  /// Outcome of the stage. OK when every task committed; otherwise the
  /// FIRST task failure that exhausted its retries (remaining tasks are
  /// cancelled). Actions surface this instead of aborting — see
  /// Dataset::TryCollect and JobFailedError.
  Status status;
  /// Task attempts re-run after a retryable failure (fault tolerance;
  /// see Context::Options::max_task_retries).
  uint64_t task_retries = 0;
  /// Spill runs whose data was corrupt or missing at shuffle-read time
  /// and was regenerated from the retained lineage closure.
  uint64_t recovered_spill_runs = 0;
  /// Latency / size distributions (telemetry.h), always on. One sample
  /// per task / queued task / shuffle target bucket / spill segment;
  /// mergeable across stages (JobMetrics::TaskDurationHistogram etc.)
  /// and surfaced as p50/p95/p99 in ToString()/ToJson().
  Histogram task_duration_us;
  Histogram queue_wait_us;
  Histogram shuffle_bucket_bytes;
  Histogram spill_segment_bytes;

  /// Sum of all task times (total CPU demand of the stage).
  double TotalTaskSeconds() const;
  /// Longest single task (lower bound on distributed stage latency).
  double MaxTaskSeconds() const;
  /// Stage latency when tasks are greedily scheduled (longest processing
  /// time first) onto `workers` parallel workers. This is the makespan a
  /// Spark/YARN cluster with that many executor slots would approach, and
  /// is what the scalability experiments (paper Fig. 7) report.
  double SimulatedMakespan(int workers) const;
};

/// Accumulated metrics for a sequence of stages (a "job").
class JobMetrics {
 public:
  void AddStage(StageMetrics stage);
  void Clear();

  const std::vector<StageMetrics>& stages() const { return stages_; }
  size_t NumStages() const { return stages_.size(); }

  /// Total CPU seconds across all stages.
  double TotalTaskSeconds() const;
  /// Sum of per-stage simulated makespans for a `workers`-slot cluster.
  /// Stages are barriers in the RDD model, so makespans add up.
  double SimulatedMakespan(int workers) const;
  uint64_t TotalShuffleRecords() const;
  uint64_t TotalShuffleBytes() const;
  /// Total elements/bytes written to partition storage across stages —
  /// the memory-traffic cost that stage fusion removes.
  uint64_t TotalMaterializedElements() const;
  uint64_t TotalMaterializedBytes() const;
  /// Total bytes spilled to disk / spill runs across all shuffle writes.
  uint64_t TotalSpilledBytes() const;
  uint64_t TotalSpilledRuns() const;
  /// Fault-tolerance totals across all stages (see StageMetrics).
  uint64_t TotalTaskRetries() const;
  uint64_t TotalRecoveredSpillRuns() const;
  /// Job-level distributions: the per-stage histograms merged (exact —
  /// merging log-bucket counts loses nothing; see Histogram::Merge).
  Histogram TaskDurationHistogram() const;
  Histogram QueueWaitHistogram() const;
  Histogram ShuffleBucketHistogram() const;
  Histogram SpillSegmentHistogram() const;

  /// Sums each traced operator's counts across all stages (an op that
  /// executed in several stages — a pending chain streamed by more than
  /// one consumer — reports its total). Key = OpMetrics::op_id. Used by
  /// Dataset::ExplainDot to annotate plan nodes with observed record
  /// counts after a run.
  std::unordered_map<uint64_t, OpMetrics> AggregatedOpMetrics() const;

  /// Multi-line human-readable per-stage summary; with tracing on, each
  /// stage line is followed by an indented per-operator breakdown.
  std::string ToString() const;

  /// Machine-readable dump of every stage (including op_metrics) plus
  /// job totals, for benches: {"stages":[...],"totals":{...}}.
  std::string ToJson() const;

 private:
  std::vector<StageMetrics> stages_;
};

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_METRICS_H_

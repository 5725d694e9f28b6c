#ifndef RANKJOIN_MINISPARK_CONTEXT_H_
#define RANKJOIN_MINISPARK_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "minispark/approx_size.h"
#include "minispark/checkpoint.h"
#include "minispark/fault.h"
#include "minispark/lint.h"
#include "minispark/metrics.h"
#include "minispark/telemetry.h"
#include "minispark/trace.h"

namespace rankjoin::minispark {

class StatsServer;  // stats_server.h; only context.cc needs the definition

/// Read-only value replicated to every task, mirroring Spark's broadcast
/// variables (the paper broadcasts the global item-frequency order).
/// Copies of the handle share the underlying value.
template <typename T>
class Broadcast {
 public:
  explicit Broadcast(T value)
      : value_(std::make_shared<const T>(std::move(value))) {}

  const T& operator*() const { return *value_; }
  const T* operator->() const { return value_.get(); }

 private:
  std::shared_ptr<const T> value_;
};

/// Driver-side handle for executing dataflow stages.
///
/// A Context owns a thread pool (the "cluster"), a default partition
/// count (Spark's `spark.default.parallelism`) and the metrics of every
/// stage it ran. Datasets created from the same Context share the pool.
///
/// The Context itself must be used from a single driver thread; tasks
/// submitted through RunStage execute concurrently on the pool.
class Context {
 public:
  struct Options {
    /// Worker threads in the pool. The *simulated* cluster size used by
    /// the scalability experiments is a separate knob, applied when
    /// reading metrics (JobMetrics::SimulatedMakespan).
    int num_workers = 4;
    /// Partition count used when an operation does not specify one.
    int default_partitions = 8;
    /// Job-wide cap on the bytes a shuffle's map-side buckets may keep
    /// resident. Once the (serialized-size) total across all map tasks
    /// exceeds it, the task that crossed the line spills its buckets to
    /// temp files and the shuffle read streams them back (see
    /// shuffle.h). 0 (default) = unlimited, never touch disk. The
    /// RANKJOIN_SHUFFLE_BUDGET_BYTES environment variable overrides this
    /// value when set — CI uses it to force the disk path under the
    /// whole test suite.
    uint64_t shuffle_memory_budget_bytes = 0;
    /// Directory for shuffle spill files. Empty (default) = the system
    /// temp directory. The context creates a unique subdirectory on
    /// first spill and removes it on destruction.
    std::string spill_dir = {};
    /// Runtime observability (trace.h): kOff (default) records nothing
    /// beyond the existing StageMetrics; kCounters adds per-operator
    /// in/out element counts inside fused chains, the counter registry,
    /// and task/spill/shuffle-read trace spans; kTimers adds per-element
    /// op timing. The RANKJOIN_TRACE_LEVEL environment variable
    /// ("off"/"counters"/"timers" or 0/1/2; any other value is ignored
    /// with a warning) overrides this value when set — CI uses it to run
    /// the whole suite at maximum verbosity.
    TraceLevel trace_level = TraceLevel::kOff;
    /// Plan linting (lint.h): kOff (default) never lints automatically;
    /// kWarn lints every plan at Collect()-time, logging and recording
    /// diagnostics (Context::lint_report()); kError additionally aborts
    /// before the collected chain runs when an error-severity diagnostic
    /// (MS004) is present — a bad plan is rejected cheaply instead of
    /// being discovered mid-job. The RANKJOIN_LINT_LEVEL environment
    /// variable ("off"/"warn"/"error" or 0/1/2; any other value is
    /// ignored with a warning) overrides this value when set — CI uses
    /// it to run the whole suite in error mode.
    LintLevel lint_level = LintLevel::kOff;
    /// MS003 threshold: broadcasts with a driver-side size estimate
    /// above this many bytes are flagged.
    uint64_t lint_broadcast_max_bytes = 64ull << 20;
    /// Fault tolerance (fault.h): how many times one task is RE-run
    /// after a retryable failure (a throwing user lambda or an injected
    /// fault) before the stage fails. 0 = fail on the first error, like
    /// the pre-fault engine. A task that exhausts its retries fails the
    /// stage with the FIRST error; the remaining tasks are cancelled and
    /// the Status surfaces from the action (Dataset::TryCollect, or a
    /// JobFailedError from the others) instead of aborting the process.
    int max_task_retries = 4;
    /// Base of the exponential retry backoff: attempt k sleeps
    /// retry_backoff_ms << k milliseconds (capped at 100 ms) before
    /// re-running. 0 = retry immediately.
    int retry_backoff_ms = 2;
    /// Deterministic fault-injection spec (grammar in fault.h), e.g.
    /// "task_throw:p=0.05;spill_corrupt:p=0.1;seed=42". Empty (default)
    /// = no injection. The RANKJOIN_FAULT_SPEC environment variable
    /// overrides this value when set — CI uses it to run the whole suite
    /// under chaos; a malformed value is ignored with a warning. A
    /// malformed spec set here aborts at Context construction.
    std::string fault_spec = {};
    /// Pipelined producer/consumer stage execution (shuffle.h): when
    /// true, the wide operations overlap their shuffle-write and
    /// shuffle-read phases — each map task publishes its completed
    /// buckets into a bounded queue at commit time, and dedicated reader
    /// threads consume mappers as they arrive instead of waiting for the
    /// stage barrier. Off (default) keeps the classic barrier path; the
    /// two modes produce byte-identical results (tested), so this is a
    /// pure scheduling A/B knob. The RANKJOIN_PIPELINED_STAGES
    /// environment variable ("1"/"on"/"true"/"yes" or
    /// "0"/"off"/"false"/"no"; any other value is ignored with a
    /// warning) overrides this value when set.
    bool pipelined_stages = false;
    /// Live telemetry exposition (telemetry.h / stats_server.h): when
    /// >= 0, the context starts a background resource sampler and an
    /// embedded HTTP server on 127.0.0.1:<stats_port> serving Prometheus
    /// text-format /metrics and a /healthz JSON snapshot. 0 picks an
    /// ephemeral port (Context::stats_port() reports it); -1 (default)
    /// = off, zero threads, zero sockets. A bind failure warns and
    /// continues without exposition — telemetry never fails a job. The
    /// RANKJOIN_STATS_PORT environment variable overrides this value
    /// when set.
    int stats_port = -1;
    /// Resource-sampler period in milliseconds (RSS, CPU, spill-dir
    /// bytes, live tasks — into a bounded ring buffer). Only used when
    /// stats_port >= 0.
    int stats_sample_ms = 200;
    /// Durable execution (checkpoint.h): when non-empty, materialized
    /// stage results whose record type is checkpoint-portable are
    /// persisted under this directory (Serde + CRC-32, manifest with
    /// atomic rename-commit), keyed by lineage-plan fingerprints. The
    /// directory OUTLIVES the context — unlike spill_dir — so a later
    /// process can resume from it. Empty (default) = no checkpointing.
    /// The RANKJOIN_CHECKPOINT_DIR environment variable overrides this
    /// value when set.
    std::string checkpoint_dir = {};
    /// When true (and checkpoint_dir is set), stages whose checkpoints
    /// verify (manifest epoch + CRC) are SKIPPED: their results load
    /// from disk and only downstream work re-executes. When false, a
    /// fresh start bumps the manifest epoch, invalidating prior
    /// entries. The RANKJOIN_RESUME environment variable (spelled as
    /// RANKJOIN_PIPELINED_STAGES) overrides this value when set.
    bool resume = false;
    /// Whole-job deadline in milliseconds from Context construction.
    /// Once it passes, every subsequent stage submission — and every
    /// in-flight fused chain at its next record-boundary probe —
    /// returns Status kDeadlineExceeded (structured failure, never
    /// abort). 0 (default) = no deadline; a value too large to count
    /// in microseconds is no deadline either. The
    /// RANKJOIN_JOB_DEADLINE_MS environment variable overrides this
    /// value when set (at most 10^15).
    int64_t job_deadline_ms = 0;
    /// What a spill/checkpoint write failure does to the job
    /// (checkpoint.h): degrade (default) or fail with a Status.
    DiskPressurePolicy disk_pressure_policy =
        DiskPressurePolicy::kDropCheckpoints;
  };

  explicit Context(Options options);
  Context() : Context(Options{}) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ~Context();

  int num_workers() const { return options_.num_workers; }
  int default_partitions() const { return options_.default_partitions; }
  uint64_t shuffle_memory_budget_bytes() const {
    return options_.shuffle_memory_budget_bytes;
  }
  TraceLevel trace_level() const { return options_.trace_level; }
  bool trace_enabled() const {
    return TraceCountersEnabled(options_.trace_level);
  }
  LintLevel lint_level() const { return options_.lint_level; }
  bool pipelined_stages() const { return options_.pipelined_stages; }
  /// Bounded publish window of a pipelined exchange, max(4,
  /// num_workers): map task m blocks at publish time while m >=
  /// lowest-unconsumed-mapper + window, which caps how far producers
  /// run ahead of consumers.
  int pipelined_window() const {
    return options_.num_workers > 4 ? options_.num_workers : 4;
  }

  /// Snapshot of the lint-relevant execution environment (thresholds +
  /// registered broadcasts) that LintPlan needs beyond the lineage itself.
  LintSettings lint_settings() const {
    LintSettings settings;
    settings.shuffle_memory_budget_bytes =
        options_.shuffle_memory_budget_bytes;
    settings.broadcast_max_bytes = options_.lint_broadcast_max_bytes;
    settings.broadcasts = broadcasts_;
    return settings;
  }

  /// Free-form driver annotation (e.g. the adaptive planner's decision
  /// summary) prepended as a comment to Dataset::ExplainDot output.
  /// Driver-thread only, like all plan-side entry points.
  void set_plan_annotation(std::string annotation) {
    plan_annotation_ = std::move(annotation);
  }
  const std::string& plan_annotation() const { return plan_annotation_; }

  /// Diagnostics accumulated by automatic Collect()-time lints (and
  /// explicit Dataset::Lint() calls at lint_level >= kWarn), deduped
  /// across plans. Node pointers are nulled on archive — plans may not
  /// outlive the datasets that built them; locations remain.
  const std::vector<LintDiagnostic>& lint_report() const {
    return lint_report_;
  }

  /// Archives diagnostics into lint_report(), deduping repeats (the
  /// same plan is often collected more than once). Driver-thread only,
  /// like all Context plan-side entry points.
  void RecordLintDiagnostics(std::vector<LintDiagnostic> diagnostics);

  /// Returns a fresh path for one shuffle spill file, creating the
  /// context's unique spill subdirectory on first use. Thread-safe:
  /// shuffle writers call this from inside map tasks. The whole
  /// directory is removed when the context is destroyed (individual
  /// files go earlier, when their shuffle completes). Fails with
  /// IoError when the directory cannot be created (bounded retries, no
  /// infinite loop) — the shuffle then degrades to resident-only
  /// buffering (MarkSpillDegraded) instead of aborting.
  Result<std::string> NewSpillFilePath();

  /// The context's deterministic fault injector (disabled unless
  /// Options::fault_spec / RANKJOIN_FAULT_SPEC configured one).
  FaultInjector& fault_injector() { return fault_injector_; }

  /// Context-unique id for one shuffle (1, 2, ...), stamped into the
  /// fault injector's spill-corruption coordinates so the schedule is
  /// stable per shuffle regardless of thread timing.
  uint64_t NextShuffleId() {
    return next_shuffle_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// True once a spill write failed and shuffles fell back to
  /// resident-only buffering (budget overruns stay in memory).
  bool spill_degraded() const {
    return spill_degraded_.load(std::memory_order_relaxed);
  }

  /// Records that the spill path is unusable (`cause` says why). Logged
  /// once; subsequent shuffles keep their buckets resident.
  void MarkSpillDegraded(const Status& cause);

  /// The checkpoint manager, or null when Options::checkpoint_dir is
  /// empty. Key allocation and load/save are driver-thread only.
  CheckpointManager* checkpoint_manager() {
    return checkpoint_manager_.get();
  }
  DiskPressurePolicy disk_pressure_policy() const {
    return options_.disk_pressure_policy;
  }

  /// Disk-pressure event on the SPILL path (real write failure or an
  /// injected spill_enospc): bumps the fault.disk.* counters, degrades
  /// spilling to resident-only, and drops checkpointing. Under the
  /// kFail policy the caller fails the task instead — check
  /// disk_pressure_policy() first. Safe from task threads.
  void OnSpillDiskPressure(const Status& cause);

  /// Cooperative job cancellation: every subsequent stage submission
  /// and in-flight record-boundary probe fails with Status kCancelled.
  /// Idempotent, safe from any thread (that is the point — a watchdog
  /// thread cancels a runaway driver).
  void Cancel();

  /// True once Cancel() was called or the job deadline passed. Cheap
  /// (one relaxed load on the common path); safe from any thread.
  bool StopRequested();

  /// The structured reason for StopRequested(): kCancelled or
  /// kDeadlineExceeded (OK when no stop was requested).
  Status StopStatus() const;

  /// Milliseconds until the job deadline: negative when none is
  /// configured, 0 once expired. Mirrored into telemetry for /metrics
  /// and /healthz.
  int64_t DeadlineRemainingMs() const;

  JobMetrics& metrics() { return metrics_; }
  const JobMetrics& metrics() const { return metrics_; }

  /// Always-on runtime telemetry (histograms + gauges; telemetry.h).
  /// Unlike metrics(), safe to read from any thread — the stats server
  /// renders /metrics and /healthz exclusively from this hub (plus the
  /// counter registry and resource sampler).
  TelemetryHub& telemetry() { return telemetry_; }
  const TelemetryHub& telemetry() const { return telemetry_; }

  /// Bound port of the embedded stats server (Options::stats_port /
  /// RANKJOIN_STATS_PORT), or -1 when exposition is off.
  int stats_port() const;

  /// Named filter-effectiveness counters published by the algorithm
  /// layer (trace.h). Disabled (all writes ignored) unless trace_level
  /// is at least kCounters.
  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

  /// Span collector for the Chrome-trace export. Enabled iff
  /// trace_enabled(); instrumentation sites check enabled() and skip
  /// recording otherwise.
  TraceSink& tracer() { return tracer_; }
  const TraceSink& tracer() const { return tracer_; }

  /// Writes every recorded span plus the counter snapshot as Chrome
  /// trace format JSON to `path` (open in Perfetto / chrome://tracing).
  /// Works at any trace level; with tracing off the file just has no
  /// spans.
  Status DumpTrace(const std::string& path) const;

  /// Creates the identity tag a traced narrow op's generator captures,
  /// or null when tracing is off (the null tag IS the off-path gate in
  /// dataset.h: one pointer check per generator invocation). Ids are
  /// unique per context, increasing in plan-construction order.
  std::shared_ptr<const OpTag> MakeOpTag(const std::string& op,
                                         const std::string& name) {
    if (!trace_enabled()) return nullptr;
    auto tag = std::make_shared<OpTag>();
    tag->id = next_op_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    tag->op = op;
    tag->name = name;
    return tag;
  }

  using TaskFn = std::function<void(int)>;

  /// Executes `num_tasks` tasks of a named stage on the pool, blocking
  /// until all complete. `task(i)` runs for every i in [0, num_tasks);
  /// num_tasks <= 0 is an explicit no-op (empty StageMetrics, no pool
  /// dispatch). Returns per-task wall times; the caller may annotate the
  /// returned record with shuffle statistics before it is stored via
  /// AddStage. `task` is taken by reference, and so may capture the
  /// caller's locals by reference: every attempt has ended when
  /// RunStage returns.
  ///
  /// Fault tolerance: a task attempt that throws is retried up to
  /// Options::max_task_retries times with exponential backoff (each
  /// retry emits a "task-retry" span and counts in
  /// StageMetrics::task_retries); an attempt that throws
  /// NonRetryableError — or exhausts its retries — fails the stage:
  /// StageMetrics::status carries the FIRST such error and the remaining
  /// tasks are cancelled. A task's attempts run one after another on one
  /// worker, and a retry starts only after the failed attempt returned,
  /// so an attempt clears its own output at entry and writes it
  /// directly (the engine's call sites do: ResetMapTask in the shuffle
  /// writes, dest.clear() in the reads and Materialize).
  StageMetrics RunStage(const std::string& name, int num_tasks,
                        const TaskFn& task);

  /// Stores a completed stage record in the job metrics.
  void AddStage(StageMetrics stage) { metrics_.AddStage(std::move(stage)); }

  /// True when called from inside a task body whose stage has been
  /// cancelled (another task permanently failed). Task bodies that can
  /// block for unbounded time on external progress — the pipelined
  /// publish window in shuffle.h — poll this to bail out instead of
  /// wedging the stage barrier. Returns false outside task bodies.
  static bool CurrentTaskCancelled();

  /// Creates a broadcast variable and registers its driver-side size
  /// estimate (ApproxSize) with the plan linter: broadcasts above
  /// Options::lint_broadcast_max_bytes raise MS003. `name` labels the
  /// broadcast in diagnostics.
  template <typename T>
  Broadcast<T> MakeBroadcast(T value, const std::string& name = "broadcast") {
    broadcasts_.push_back(
        {name, static_cast<uint64_t>(ApproxSize(value))});
    return Broadcast<T>(std::move(value));
  }

 private:
  /// Shared state of one executing stage (defined in context.cc).
  struct StageExec;

  /// Starts the resource sampler + stats server (Options::stats_port
  /// >= 0). Bind failures warn and leave the server off.
  void StartStatsExposition();

  /// The per-task attempt loop (retry, cancellation, fault injection).
  /// Runs on a pool worker.
  void RunTaskAttempts(StageExec& ex, int index);

  Options options_;
  JobMetrics metrics_;
  CounterRegistry counters_;
  TraceSink tracer_;
  FaultInjector fault_injector_;
  /// Always-on telemetry hub; read concurrently by the stats server.
  TelemetryHub telemetry_;
  /// Set iff Options::stats_port >= 0; both stopped in ~Context before
  /// the pool drains (their threads read telemetry_/counters_).
  std::unique_ptr<ResourceSampler> sampler_;
  std::unique_ptr<StatsServer> stats_server_;
  std::atomic<uint64_t> next_op_id_{0};
  std::atomic<uint64_t> next_shuffle_id_{0};
  std::atomic<bool> spill_degraded_{false};
  /// 0 = running, 1 = cancelled, 2 = deadline exceeded. Set once via
  /// CAS (first cause wins); read on every stage submission and fused-
  /// chain probe.
  std::atomic<int> stop_state_{0};
  /// Absolute steady-clock deadline in micros since construction
  /// (INT64_MAX = none).
  int64_t deadline_at_us_ = INT64_MAX;
  std::chrono::steady_clock::time_point start_time_;
  /// Set iff Options::checkpoint_dir non-empty.
  std::unique_ptr<CheckpointManager> checkpoint_manager_;
  /// Stages completed by RunStage — the proc_kill_after chaos site's
  /// trigger count.
  std::atomic<int64_t> stages_completed_{0};
  /// Guards lazy creation of the spill directory and the file counter.
  Mutex spill_mutex_;
  std::string spill_dir_path_ GUARDED_BY(spill_mutex_);
  uint64_t next_spill_file_ GUARDED_BY(spill_mutex_) = 0;
  /// Broadcast registry (driver thread only) feeding MS003.
  std::vector<BroadcastRecord> broadcasts_;
  /// Driver annotation rendered into ExplainDot (set_plan_annotation).
  std::string plan_annotation_;
  /// Archived diagnostics (node pointers nulled) + dedup keys.
  std::vector<LintDiagnostic> lint_report_;
  std::unordered_set<std::string> lint_seen_;
  /// Declared LAST, so destroying the pool joins its (idle) workers
  /// while every member a task touches is still alive. No task runs
  /// outside RunStage, which waits for all of its attempts.
  ThreadPool pool_;
};

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_CONTEXT_H_

#ifndef RANKJOIN_MINISPARK_TRACE_H_
#define RANKJOIN_MINISPARK_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace rankjoin::minispark {

/// How much runtime visibility the engine records (see docs/MINISPARK.md,
/// "Observability"). Gated per Context via Context::Options::trace_level;
/// the RANKJOIN_TRACE_LEVEL environment variable ("off"/"counters"/
/// "timers", or 0/1/2) overrides the option, which CI uses to run the
/// whole test suite at maximum verbosity.
enum class TraceLevel : int {
  /// No per-operator instrumentation. The hot generator loops are
  /// byte-for-byte the untraced ones (one null check per generator
  /// invocation per partition, nothing per element).
  kOff = 0,
  /// Per-operator input/output element counts inside fused chains,
  /// the counter registry, and task/spill/shuffle-read trace spans.
  /// Two integer increments per element per fused op.
  kCounters = 1,
  /// kCounters plus per-element wall-clock timing of every fused op
  /// (inclusive of its downstream sink — see OpMetrics::seconds).
  kTimers = 2,
};

/// Parses "off"/"counters"/"timers" (or "0"/"1"/"2"), in any case;
/// returns nullopt on anything else.
std::optional<TraceLevel> ParseTraceLevel(const std::string& text);
const char* TraceLevelName(TraceLevel level);

inline bool TraceCountersEnabled(TraceLevel level) {
  return static_cast<int>(level) >= static_cast<int>(TraceLevel::kCounters);
}
inline bool TraceTimersEnabled(TraceLevel level) {
  return static_cast<int>(level) >= static_cast<int>(TraceLevel::kTimers);
}

/// Identity of one traced logical operator. Created by the Context when a
/// narrow op is chained (tracing on) and captured by that op's generator
/// closure, so per-op attribution survives arbitrary fusion. Ids are
/// unique per Context and increase in plan-construction order, which for
/// a straight-line chain is exactly pipeline order.
struct OpTag {
  uint64_t id = 0;
  std::string op;    ///< logical op kind ("map", "filter", ...)
  std::string name;  ///< user-facing stage label
};

/// Per-operator tallies accumulated by ONE task. Plain integers: a
/// TaskTrace is written by exactly one worker thread and merged on the
/// driver after the stage barrier, so the hot loop never touches a
/// shared counter (see the race-audit notes in shuffle.h).
struct OpCounts {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Inclusive nanoseconds spent in the op's step for this task
  /// (kTimers only; includes time in downstream fused ops, because the
  /// push-based sink nests — document accordingly when reporting).
  int64_t nanos = 0;
};

/// Scratch area one task uses to tally per-operator counts. Slots are
/// looked up by OpTag pointer with a linear scan — fused chains are a
/// handful of ops long, so this beats hashing.
class TaskTrace {
 public:
  explicit TaskTrace(bool timers = false) : timers_(timers) {}

  bool timers_enabled() const { return timers_; }

  /// Returns the counts slot for `tag`, creating it on first use. `tag`
  /// must outlive the trace (generator closures own it). The returned
  /// pointer stays valid for the trace's lifetime — fused generators
  /// hoist it once per partition while ops up the chain keep adding
  /// slots, hence the deque (vector growth would dangle them).
  OpCounts* Slot(const OpTag* tag) {
    for (auto& entry : slots_) {
      if (entry.first == tag) return &entry.second;
    }
    slots_.emplace_back(tag, OpCounts{});
    return &slots_.back().second;
  }

  const std::deque<std::pair<const OpTag*, OpCounts>>& slots() const {
    return slots_;
  }

 private:
  bool timers_;
  std::deque<std::pair<const OpTag*, OpCounts>> slots_;
};

/// The TaskTrace of the task currently executing on this thread, or null
/// when tracing is off / no task is running. Context::RunStage installs
/// it around each task; generator closures read it once per invocation.
TaskTrace* CurrentTaskTrace();

/// RAII installer for CurrentTaskTrace (restores the previous value, so
/// nested RunStage calls — which do not happen today — would still nest).
class ScopedTaskTrace {
 public:
  explicit ScopedTaskTrace(TaskTrace* trace);
  ~ScopedTaskTrace();
  ScopedTaskTrace(const ScopedTaskTrace&) = delete;
  ScopedTaskTrace& operator=(const ScopedTaskTrace&) = delete;

 private:
  TaskTrace* previous_;
};

/// Small dense id for the calling thread, assigned on first use (driver
/// threads typically get 0, pool workers 1..N). Used as the Chrome-trace
/// "tid" so spans from one worker share a track.
int CurrentTraceTid();

/// Thread-safe named monotonic counters, scoped to one Context. The
/// algorithm layer publishes paper-meaningful filter-effectiveness
/// numbers here (prefix candidates, cluster sizes, triangle-inequality
/// prunes, verified pairs, ...) at phase boundaries — counters are
/// atomics, but the join pipelines deliberately accumulate per-partition
/// JoinStats locally and publish once per phase, keeping the hot loops
/// free of shared writes.
///
/// Disabled (trace_level = kOff) the registry ignores all writes, so
/// call sites need no gating of their own.
class CounterRegistry {
 public:
  explicit CounterRegistry(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Adds `delta` to counter `name`, creating it at zero first. Thread-
  /// safe; no-op when the registry is disabled. Adding zero still
  /// creates the counter, which keeps snapshots structurally identical
  /// across runs that prune everything vs nothing.
  void Add(const std::string& name, uint64_t delta);

  /// Current value of `name` (0 if never written).
  uint64_t Value(const std::string& name) const;

  /// All counters, sorted by name (deterministic).
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

  /// Forgets all counters. Safe against concurrent Add(): increments
  /// racing with the clear land in retired storage and are dropped from
  /// future snapshots rather than touching freed memory.
  void Clear();

 private:
  bool enabled_;
  mutable Mutex mutex_;
  /// std::map for sorted, pointer-stable iteration; the atomic lets
  /// concurrent Add()s on the same counter proceed without holding the
  /// map lock for the increment itself.
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>> counters_
      GUARDED_BY(mutex_);
  /// Counters displaced by Clear(). Add() increments its atomic OUTSIDE
  /// the map lock (the escaped-pointer fast path above), so a counter
  /// removed from the map may still be written by a racing Add — the
  /// graveyard keeps those atomics alive until the registry itself dies,
  /// turning a heap-use-after-free into a lost-to-the-snapshot (and
  /// harmless) increment.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> retired_
      GUARDED_BY(mutex_);
};

/// One completed span recorded by the TraceSink.
struct TraceSpan {
  std::string name;      ///< stage/task label
  /// "stage", "task", "spill", "shuffle-read", plus the fault-tolerance
  /// categories: "task-retry" (a re-run attempt after a retryable
  /// failure) and "spill-recovery" (a corrupt/missing spill run
  /// regenerated from lineage).
  std::string category;
  int tid = 0;           ///< CurrentTraceTid() of the recording thread
  int64_t start_us = 0;  ///< microseconds since the sink's epoch
  int64_t dur_us = 0;
  int64_t task_index = -1;  ///< task number within the stage, -1 = n/a
  int64_t attempt = 0;      ///< attempt number of the task, 0 = first try
};

/// Collects task/spill/shuffle-read spans and serializes them as Chrome
/// trace format JSON (the "JSON object format": {"traceEvents": [...]}),
/// loadable in Perfetto or chrome://tracing. One mutex-protected append
/// per span — spans are per task, never per element, so the lock is off
/// the hot path.
class TraceSink {
 public:
  explicit TraceSink(bool enabled);

  bool enabled() const { return enabled_; }

  /// Microseconds elapsed since the sink (Context) was created. Cheap
  /// steady-clock read; callers stamp span starts with it.
  int64_t NowMicros() const;

  void Record(TraceSpan span);

  size_t NumSpans() const;

  /// Serializes all spans (plus the counter snapshot, under "otherData",
  /// which Chrome/Perfetto ignore) as Chrome trace format JSON.
  std::string ToChromeTraceJson(
      const std::vector<std::pair<std::string, uint64_t>>& counters) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mutex_);
};

namespace internal {
/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by TraceSink and
/// JobMetrics::ToJson.
std::string JsonEscape(const std::string& s);
}  // namespace internal

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_TRACE_H_

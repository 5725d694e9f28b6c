#ifndef RANKJOIN_MINISPARK_FAULT_H_
#define RANKJOIN_MINISPARK_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/status.h"
#include "minispark/trace.h"

namespace rankjoin::minispark {

/// Configuration of the deterministic fault injector (see
/// docs/MINISPARK.md, "Fault tolerance"). Built from a spec string of
/// `;`-separated segments:
///
///   task_throw:p=0.05;spill_corrupt:p=0.1;seed=42
///
/// - `task_throw:p=P`      every task attempt fails at its start with
///                         probability P (a retryable InjectedFault).
/// - `spill_corrupt:p=P`   every spilled bucket run is bit-flipped after
///                         its checksum is taken with probability P, so
///                         the shuffle read detects it and recovers from
///                         lineage.
/// - `spill_enospc:p=P`    every spill-file append fails as if the disk
///                         were full with probability P, exercising the
///                         disk-pressure degradation policy.
/// - `checkpoint_corrupt:p=P`
///                         every checkpoint partition payload is
///                         bit-flipped after its checksum is taken with
///                         probability P, so resume detects it and
///                         re-executes the stage.
/// - `proc_kill_after:n=N` the process raises SIGKILL after N stages
///                         complete (crash simulation for resume tests;
///                         0 = disabled).
/// - `seed=N`              base seed of the schedule (default 42).
///
/// All probabilities default to 0 (that fault disabled).
struct FaultSpec {
  double task_throw_p = 0.0;
  double spill_corrupt_p = 0.0;
  double spill_enospc_p = 0.0;
  double checkpoint_corrupt_p = 0.0;
  int64_t proc_kill_after = 0;
  uint64_t seed = 42;

  /// True when at least one fault kind can fire.
  bool Any() const {
    return task_throw_p > 0.0 || spill_corrupt_p > 0.0 ||
           spill_enospc_p > 0.0 || checkpoint_corrupt_p > 0.0 ||
           proc_kill_after > 0;
  }
};

/// Parses the spec grammar above. Unknown segment or key names, values
/// that do not parse, and probabilities outside [0, 1] are
/// InvalidArgument. The empty string parses to the all-off spec.
Result<FaultSpec> ParseFaultSpec(const std::string& text);

/// The exception an injected task fault raises. Retryable: the task
/// attempt loop in Context::RunStage treats it like any transient
/// user-lambda failure and re-runs the attempt.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// An error that must NOT be retried: the task's inputs were consumed or
/// otherwise cannot be replayed (e.g. a shuffle read whose spill data is
/// gone and no lineage recovery is registered). The attempt loop fails
/// the stage immediately with the carried Status.
class NonRetryableError : public std::runtime_error {
 public:
  explicit NonRetryableError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Deterministic, seeded fault source. Every decision is a pure hash of
/// (seed, fault kind, call-site coordinates) — independent of thread
/// scheduling and wall clock — so a fixed seed produces the SAME fault
/// schedule on every run: the same task attempts throw, the same spill
/// runs corrupt. That is what makes the chaos suite assert byte-identical
/// results and stable fault.* counters.
///
/// Injections are tallied into the owning Context's CounterRegistry
/// (`fault.task_throw.injected`, `fault.spill_corrupt.injected`, ...)
/// when tracing is at least kCounters.
class FaultInjector {
 public:
  /// Disabled injector (no spec, never fires).
  FaultInjector() = default;

  FaultInjector(FaultSpec spec, CounterRegistry* counters)
      : spec_(spec), counters_(counters) {}

  bool enabled() const { return spec_.Any(); }
  const FaultSpec& spec() const { return spec_; }

  /// Should this task attempt fail at its start? `attempt` is the
  /// attempt number, so a retry of the same task draws a fresh
  /// decision.
  bool TaskThrow(const std::string& stage, int task, uint64_t attempt);

  /// Should this spilled bucket run be corrupted after checksumming?
  /// Coordinates identify one run globally: the context-unique shuffle
  /// id, the map task, the run index within that task, and the bucket.
  bool SpillCorrupt(uint64_t shuffle_id, int map_task, uint64_t run,
                    int bucket);

  /// Should this spill-file append fail as if the disk were full?
  /// Coordinates: shuffle id, map task, run index, bucket.
  bool SpillEnospc(uint64_t shuffle_id, int map_task, uint64_t run,
                   int bucket);

  /// Should this checkpoint partition payload be corrupted after
  /// checksumming? Coordinates: the stage's plan fingerprint, its
  /// occurrence index within the job, and the partition.
  bool CheckpointCorrupt(uint64_t fingerprint, uint64_t occurrence,
                         int partition);

  /// Stages to let complete before raising SIGKILL (0 = never).
  int64_t proc_kill_after() const { return spec_.proc_kill_after; }

 private:
  /// Uniform [0,1) draw from the hashed coordinates.
  double Draw(uint64_t site, uint64_t a, uint64_t b, uint64_t c,
              uint64_t d) const;

  FaultSpec spec_;
  CounterRegistry* counters_ = nullptr;
};

/// CRC-32 (IEEE 802.3 polynomial) over `n` bytes — the spill-run
/// integrity checksum verified by ShuffleService::ReadBucket.
uint32_t Crc32(const char* data, size_t n);

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_FAULT_H_

#include "minispark/context.h"

#include <algorithm>
#include <chrono>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "minispark/stats_server.h"

namespace rankjoin::minispark {
namespace {

/// Exponential retry backoff never sleeps longer than this per attempt.
constexpr int64_t kMaxBackoffMs = 100;
/// Largest RANKJOIN_JOB_DEADLINE_MS accepted, the cap of rankjoin_cli's
/// --deadline-ms.
constexpr uint64_t kMaxDeadlineMs = 1000000000000000ull;

/// Reads the numeric override `name` into *out when the variable is set
/// to a whole decimal number in [0, max]. Any other value is ignored
/// with one warning naming the variable.
bool NumericOverride(const char* name, uint64_t max, uint64_t* out) {
  const char* text = std::getenv(name);
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec == std::errc() && ptr == end && value <= max) {
    *out = value;
    return true;
  }
  RANKJOIN_LOG(Warning) << name << "='" << text
                        << "' is not a decimal number in [0, " << max
                        << "]; ignored";
  return false;
}

/// The on/off spellings of the boolean overrides.
constexpr char kSwitchSpellings[] = "one of 1/on/true/yes or 0/off/false/no";

std::optional<bool> ParseSwitch(const std::string& value) {
  if (value == "1" || value == "on" || value == "true" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "off" || value == "false" || value == "no") {
    return false;
  }
  return std::nullopt;
}

/// The fault spec itself, when ParseFaultSpec accepts it.
std::optional<std::string> ParseValidFaultSpec(const std::string& value) {
  if (!ParseFaultSpec(value).ok()) return std::nullopt;
  return value;
}

/// Reads the override `name` into *out when `parse` accepts its value.
/// Any other value is ignored with one warning naming the variable and
/// the `spellings` it accepts.
template <typename T>
void SpelledOverride(const char* name,
                     std::optional<T> (*parse)(const std::string&),
                     const char* spellings, T* out) {
  const char* text = std::getenv(name);
  if (text == nullptr) return;
  if (const std::optional<T> value = parse(text)) {
    *out = *value;
    return;
  }
  RANKJOIN_LOG(Warning) << name << "='" << text << "' is not " << spellings
                        << "; ignored";
}

/// Applies environment overrides to the options (see Options docs).
Context::Options WithEnvOverrides(Context::Options options) {
  NumericOverride("RANKJOIN_SHUFFLE_BUDGET_BYTES", UINT64_MAX,
                  &options.shuffle_memory_budget_bytes);
  SpelledOverride("RANKJOIN_TRACE_LEVEL", ParseTraceLevel,
                  "one of off/counters/timers or 0/1/2", &options.trace_level);
  SpelledOverride("RANKJOIN_LINT_LEVEL", ParseLintLevel,
                  "one of off/warn/error or 0/1/2", &options.lint_level);
  SpelledOverride("RANKJOIN_FAULT_SPEC", ParseValidFaultSpec,
                  "a fault spec such as 'task_throw:p=0.05;seed=42' "
                  "(grammar in minispark/fault.h)",
                  &options.fault_spec);
  if (uint64_t port = 0;
      NumericOverride("RANKJOIN_STATS_PORT", 65535, &port)) {
    options.stats_port = static_cast<int>(port);
  }
  SpelledOverride("RANKJOIN_PIPELINED_STAGES", ParseSwitch, kSwitchSpellings,
                  &options.pipelined_stages);
  if (const char* dir = std::getenv("RANKJOIN_CHECKPOINT_DIR")) {
    options.checkpoint_dir = dir;
  }
  SpelledOverride("RANKJOIN_RESUME", ParseSwitch, kSwitchSpellings,
                  &options.resume);
  if (uint64_t ms = 0;
      NumericOverride("RANKJOIN_JOB_DEADLINE_MS", kMaxDeadlineMs, &ms)) {
    options.job_deadline_ms = static_cast<int64_t>(ms);
  }
  return options;
}

/// Per-thread pointer to the cancellation flag of the stage whose task
/// is currently running on this thread (null outside task bodies). Lets
/// long-blocking task bodies — the pipelined publish window — bail out
/// when the stage has already failed, instead of deadlocking the barrier.
thread_local const std::atomic<bool>* tl_current_stage_cancelled = nullptr;

/// RAII installer for the thread-local above.
class ScopedStageCancelProbe {
 public:
  explicit ScopedStageCancelProbe(const std::atomic<bool>* flag)
      : saved_(tl_current_stage_cancelled) {
    tl_current_stage_cancelled = flag;
  }
  ~ScopedStageCancelProbe() { tl_current_stage_cancelled = saved_; }

 private:
  const std::atomic<bool>* saved_;
};

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps up to `ms` milliseconds, one slice at a time, returning early
/// once `abandon()` turns true (the stage was cancelled).
template <typename AbandonFn>
void InterruptibleSleepMs(int64_t ms, const AbandonFn& abandon) {
  const int64_t deadline = SteadyNowMicros() + ms * 1000;
  while (!abandon() && SteadyNowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

/// Shared state of one executing stage. Attempts run on pool workers;
/// the driver blocks on `cv` until every task has finished (succeeded,
/// permanently failed, or been cancelled).
struct Context::StageExec {
  /// What one task leaves for the driver. Written only by the task's
  /// own worker, and read by the driver after the barrier, which orders
  /// the two through `mu`.
  struct TaskSlot {
    /// Wall time of the successful attempt (0 when none succeeded).
    double seconds = 0.0;
    /// Steady-clock micros when the first attempt began user code (-1
    /// when the task was cancelled before it started).
    int64_t first_start_us = -1;
    TaskTrace trace;
    bool traced = false;
  };

  StageExec(const std::string& stage_name, const TaskFn& stage_task,
            int num_tasks)
      : name(stage_name),
        task(stage_task),
        slots(static_cast<size_t>(num_tasks)) {}

  const std::string& name;
  const TaskFn& task;
  std::vector<TaskSlot> slots;
  Mutex mu;
  CondVar cv;
  int finished GUARDED_BY(mu) = 0;
  /// First task failure that exhausted its retries; wins over later ones.
  Status first_error GUARDED_BY(mu);
  std::atomic<bool> cancelled{false};
  std::atomic<uint64_t> retries{0};
};

Context::Context(Options options)
    : options_(WithEnvOverrides(std::move(options))),
      counters_(TraceCountersEnabled(options_.trace_level)),
      tracer_(TraceCountersEnabled(options_.trace_level)),
      pool_(static_cast<size_t>(options_.num_workers > 0
                                    ? options_.num_workers
                                    : 1)) {
  RANKJOIN_CHECK(options_.default_partitions >= 1);
  if (!options_.fault_spec.empty()) {
    Result<FaultSpec> spec = ParseFaultSpec(options_.fault_spec);
    RANKJOIN_CHECK(spec.ok()) << "bad Options::fault_spec: "
                              << spec.status().ToString();
    fault_injector_ = FaultInjector(*spec, &counters_);
  }
  start_time_ = std::chrono::steady_clock::now();
  if (options_.job_deadline_ms > 0) {
    // Saturates: a deadline beyond INT64_MAX microseconds never passes.
    deadline_at_us_ = options_.job_deadline_ms > INT64_MAX / 1000
                          ? INT64_MAX
                          : options_.job_deadline_ms * 1000;
    telemetry_.SetDeadlineRemainingMs(options_.job_deadline_ms);
  }
  if (!options_.checkpoint_dir.empty()) {
    checkpoint_manager_ = std::make_unique<CheckpointManager>(
        options_.checkpoint_dir, options_.resume,
        options_.disk_pressure_policy, &counters_);
  }
  if (options_.stats_port >= 0) StartStatsExposition();
}

Context::~Context() {
  // The exposition threads read telemetry_/counters_ and walk the spill
  // directory; stop them before anything below starts tearing down.
  if (stats_server_) stats_server_->Stop();
  if (sampler_) sampler_->Stop();
  // Locked for the analysis' sake (and cheap): with the server and
  // sampler stopped above, and no task running outside RunStage, nothing
  // else can touch the spill state.
  MutexLock lock(spill_mutex_);
  if (!spill_dir_path_.empty()) {
    std::error_code ec;  // best effort; never throw from a destructor
    std::filesystem::remove_all(spill_dir_path_, ec);
  }
}

int Context::stats_port() const {
  return stats_server_ ? stats_server_->port() : -1;
}

void Context::StartStatsExposition() {
  ResourceSampler::Sources sources;
  sources.spill_dir_bytes = [this]() -> uint64_t {
    std::string dir;
    {
      MutexLock lock(spill_mutex_);
      dir = spill_dir_path_;
    }
    return dir.empty() ? 0 : DirectoryBytes(dir);
  };
  sources.live_tasks = [this] { return telemetry_.live_tasks(); };
  sampler_ = std::make_unique<ResourceSampler>(
      std::move(sources), std::max(1, options_.stats_sample_ms));
  sampler_->Start();
  auto server = std::make_unique<StatsServer>();
  // Handlers run on the server thread: they may only touch the hub, the
  // counter registry, and the sampler (all thread-safe) — never the
  // driver-owned JobMetrics.
  server->Handle("/metrics", [this](std::string* content_type) {
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return RenderPrometheusText(telemetry_, counters_.Snapshot(),
                                sampler_->SampleNow());
  });
  server->Handle("/healthz", [this](std::string* content_type) {
    *content_type = "application/json";
    return RenderHealthzJson(telemetry_, sampler_->SampleNow(),
                             sampler_->SampleCount());
  });
  if (Status s = server->Start(options_.stats_port); !s.ok()) {
    RANKJOIN_LOG(Warning) << "telemetry exposition disabled: "
                          << s.ToString();
    return;
  }
  stats_server_ = std::move(server);
}

Result<std::string> Context::NewSpillFilePath() {
  MutexLock lock(spill_mutex_);
  if (spill_dir_path_.empty()) {
    namespace fs = std::filesystem;
    const fs::path base = options_.spill_dir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options_.spill_dir);
    Rng rng(static_cast<uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count()) ^
            reinterpret_cast<uintptr_t>(this));
    // Bounded retry on the (unlikely) collision with another context's
    // directory — never loop forever on a broken spill_dir.
    for (int attempt = 0; attempt < 16; ++attempt) {
      fs::path candidate =
          base / ("minispark-spill-" + std::to_string(rng.Uniform(1u << 30)));
      std::error_code ec;
      fs::create_directories(base, ec);
      if (fs::create_directory(candidate, ec) && !ec) {
        spill_dir_path_ = candidate.string();
        break;
      }
    }
    if (spill_dir_path_.empty()) {
      return Status::IoError("cannot create spill directory under '" +
                             base.string() + "'");
    }
  }
  return spill_dir_path_ + "/spill-" + std::to_string(next_spill_file_++) +
         ".bin";
}

void Context::MarkSpillDegraded(const Status& cause) {
  if (spill_degraded_.exchange(true, std::memory_order_relaxed)) return;
  counters_.Add("fault.spill.degraded", 1);
  RANKJOIN_LOG(Warning) << "spill path unusable (" << cause.ToString()
                        << "); shuffles degrade to resident-only buffering";
}

void Context::OnSpillDiskPressure(const Status& cause) {
  counters_.Add("fault.disk.enospc", 1);
  telemetry_.OnDiskPressure();
  MarkSpillDegraded(cause);
  // One disk failure disables every disk writer: a full disk will not
  // get less full because the next write is a checkpoint.
  if (checkpoint_manager_ != nullptr && checkpoint_manager_->enabled()) {
    counters_.Add("fault.disk.checkpoint_degraded", 1);
    checkpoint_manager_->Disable();
  }
}

void Context::Cancel() {
  int expected = 0;
  if (stop_state_.compare_exchange_strong(expected, 1,
                                          std::memory_order_relaxed)) {
    RANKJOIN_LOG(Warning) << "job cancelled via Context::Cancel()";
  }
}

bool Context::StopRequested() {
  if (stop_state_.load(std::memory_order_relaxed) != 0) return true;
  if (deadline_at_us_ == INT64_MAX) return false;
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  if (elapsed_us < deadline_at_us_) return false;
  int expected = 0;
  stop_state_.compare_exchange_strong(expected, 2,
                                      std::memory_order_relaxed);
  telemetry_.SetDeadlineRemainingMs(0);
  return true;
}

Status Context::StopStatus() const {
  switch (stop_state_.load(std::memory_order_relaxed)) {
    case 1:
      return Status::Cancelled("job cancelled via Context::Cancel()");
    case 2:
      return Status::DeadlineExceeded(
          "job deadline of " + std::to_string(options_.job_deadline_ms) +
          " ms exceeded");
    default:
      return Status::OK();
  }
}

int64_t Context::DeadlineRemainingMs() const {
  if (deadline_at_us_ == INT64_MAX) return -1;
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  const int64_t remaining_ms = (deadline_at_us_ - elapsed_us) / 1000;
  return remaining_ms > 0 ? remaining_ms : 0;
}

bool Context::CurrentTaskCancelled() {
  return tl_current_stage_cancelled != nullptr &&
         tl_current_stage_cancelled->load(std::memory_order_relaxed);
}

void Context::RunTaskAttempts(StageExec& ex, int index) {
  // Live-task gauge for the stats server; covers the whole attempt
  // chain (retries and their backoff included — they occupy a pool
  // slot just the same).
  struct LiveTaskScope {
    TelemetryHub& hub;
    explicit LiveTaskScope(TelemetryHub& h) : hub(h) { hub.OnTaskStart(); }
    ~LiveTaskScope() { hub.OnTaskFinish(); }
  } live_task_scope(telemetry_);
  StageExec::TaskSlot& slot = ex.slots[static_cast<size_t>(index)];
  TraceSink* sink = tracer_.enabled() ? &tracer_ : nullptr;
  const bool traced = trace_enabled();
  const bool timers = TraceTimersEnabled(options_.trace_level);
  const int max_retries = std::max(0, options_.max_task_retries);
  const int64_t backoff_ms = std::max(0, options_.retry_backoff_ms);
  const auto cancelled = [&ex] {
    return ex.cancelled.load(std::memory_order_relaxed);
  };
  for (int attempt = 0; !cancelled(); ++attempt) {
    if (attempt == 0) slot.first_start_us = SteadyNowMicros();
    const int64_t start_us = sink != nullptr ? sink->NowMicros() : 0;
    Stopwatch watch;
    // Fresh per-attempt trace: only the successful attempt's op counts
    // are merged, so a retried chain never double-reports.
    TaskTrace trace(timers);
    Status failure;
    bool retryable = true;
    try {
      // Cooperative stop: a cancelled or deadline-exceeded job fails
      // the attempt with its structured Status before the body runs
      // (never retried — the stop is permanent).
      if (StopRequested()) throw NonRetryableError(StopStatus());
      // Injected throws fire at the very start of the attempt — before
      // the body consumes anything — so a retry always sees pristine
      // inputs even for destructive readers (shuffle merge-back).
      if (fault_injector_.enabled() &&
          fault_injector_.TaskThrow(ex.name, index,
                                    static_cast<uint64_t>(attempt))) {
        throw InjectedFault("injected task fault (" + ex.name + " task " +
                            std::to_string(index) + " attempt " +
                            std::to_string(attempt) + ")");
      }
      ScopedTaskTrace scoped(traced ? &trace : nullptr);
      ScopedStageCancelProbe cancel_probe(&ex.cancelled);
      ex.task(index);
    } catch (const NonRetryableError& e) {
      failure = e.status();
      retryable = false;
    } catch (const std::exception& e) {
      failure = Status::Internal(ex.name + ": task " + std::to_string(index) +
                                 " attempt " + std::to_string(attempt) +
                                 " failed: " + e.what());
    } catch (...) {
      failure = Status::Internal(ex.name + ": task " + std::to_string(index) +
                                 " attempt " + std::to_string(attempt) +
                                 " failed: unknown exception");
    }
    const double seconds = watch.ElapsedSeconds();
    if (sink != nullptr) {
      sink->Record({ex.name, attempt > 0 ? "task-retry" : "task",
                    CurrentTraceTid(), start_us,
                    sink->NowMicros() - start_us, index, attempt});
    }
    if (failure.ok()) {
      if (attempt > 0) counters_.Add("fault.task.recovered", 1);
      slot.seconds = seconds;
      slot.trace = std::move(trace);
      slot.traced = traced;
      break;
    }
    if (retryable && attempt < max_retries && !cancelled()) {
      ex.retries.fetch_add(1, std::memory_order_relaxed);
      counters_.Add("fault.task.retried", 1);
      if (backoff_ms > 0) {
        const int64_t ms = std::min<int64_t>(
            backoff_ms << std::min(attempt, 16), kMaxBackoffMs);
        InterruptibleSleepMs(ms, cancelled);
      }
      continue;
    }
    // Out of retries, or non-retryable: fail the stage and cancel the
    // tasks that have not finished.
    MutexLock lock(ex.mu);
    if (ex.first_error.ok()) ex.first_error = std::move(failure);
    ex.cancelled.store(true, std::memory_order_relaxed);
    break;
  }
  MutexLock lock(ex.mu);
  ++ex.finished;
  ex.cv.NotifyAll();
}

StageMetrics Context::RunStage(const std::string& name, int num_tasks,
                               const TaskFn& task) {
  StageMetrics stage;
  stage.name = name;
  // Deadline / cancellation gate: once the job is stopped, no further
  // stage dispatches any work — the structured Status surfaces through
  // the poisoned-dataset path exactly like a task failure would.
  if (StopRequested()) {
    stage.status = StopStatus();
    return stage;
  }
  if (deadline_at_us_ != INT64_MAX) {
    telemetry_.SetDeadlineRemainingMs(DeadlineRemainingMs());
  }
  // An empty (or negative-count) stage is an explicit no-op: empty
  // metrics, no pool dispatch.
  if (num_tasks <= 0) return stage;
  stage.task_seconds.assign(static_cast<size_t>(num_tasks), 0.0);
  StageExec ex(name, task, num_tasks);
  TraceSink* sink = tracer_.enabled() ? &tracer_ : nullptr;
  const int64_t stage_start_us = sink != nullptr ? sink->NowMicros() : 0;
  // Steady-clock reference for the queue-wait histogram (the trace
  // sink's clock above only exists when tracing is on; this one always).
  const int64_t stage_begin_us = SteadyNowMicros();
  for (int i = 0; i < num_tasks; ++i) {
    pool_.Submit([this, &ex, i] { RunTaskAttempts(ex, i); });
  }
  MutexLock lock(ex.mu);
  while (ex.finished < num_tasks) ex.cv.Wait(lock);
  if (sink != nullptr) {
    sink->Record({stage.name, "stage", CurrentTraceTid(), stage_start_us,
                  sink->NowMicros() - stage_start_us, -1, 0});
  }
  stage.status = ex.first_error;
  stage.task_retries = ex.retries.load(std::memory_order_relaxed);
  for (int i = 0; i < num_tasks; ++i) {
    const StageExec::TaskSlot& slot = ex.slots[static_cast<size_t>(i)];
    stage.task_seconds[static_cast<size_t>(i)] = slot.seconds;
    const uint64_t duration_us = static_cast<uint64_t>(slot.seconds * 1e6);
    stage.task_duration_us.Record(duration_us);
    telemetry_.task_duration_us().Record(duration_us);
    // Queue wait = submission to the first attempt entering user code
    // (no sample for a task cancelled before it started).
    if (slot.first_start_us >= stage_begin_us) {
      const uint64_t wait_us =
          static_cast<uint64_t>(slot.first_start_us - stage_begin_us);
      stage.queue_wait_us.Record(wait_us);
      telemetry_.queue_wait_us().Record(wait_us);
    }
  }
  telemetry_.OnStageComplete();
  // Chaos crash site: after N completed stages the process dies hard
  // (SIGKILL, no cleanup) — exactly what the crash-resume CI job needs
  // to assert that a checkpointed run picks up where it was killed.
  const int64_t completed =
      stages_completed_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (fault_injector_.enabled() &&
      fault_injector_.proc_kill_after() > 0 &&
      completed == fault_injector_.proc_kill_after()) {
    RANKJOIN_LOG(Warning) << "fault injection: SIGKILL after "
                          << completed << " completed stages";
    std::raise(SIGKILL);
  }
  // Aggregate the successful attempts' op traces by op id; ids increase
  // in plan-construction order, so a straight chain reports in pipeline
  // order.
  std::map<uint64_t, OpMetrics> agg;
  for (const StageExec::TaskSlot& slot : ex.slots) {
    if (!slot.traced) continue;
    for (const auto& [tag, counts] : slot.trace.slots()) {
      OpMetrics& m = agg[tag->id];
      if (m.op.empty()) {
        m.op_id = tag->id;
        m.op = tag->op;
        m.name = tag->name;
      }
      m.records_in += counts.records_in;
      m.records_out += counts.records_out;
      m.seconds += static_cast<double>(counts.nanos) * 1e-9;
    }
  }
  stage.op_metrics.reserve(agg.size());
  for (auto& [id, m] : agg) stage.op_metrics.push_back(std::move(m));
  return stage;
}

void Context::RecordLintDiagnostics(
    std::vector<LintDiagnostic> diagnostics) {
  for (LintDiagnostic& d : diagnostics) {
    std::string key = d.code;
    key += '\n';
    key += d.location;
    key += '\n';
    key += d.message;
    if (!lint_seen_.insert(std::move(key)).second) continue;
    // The node pointer is only valid while the linted plan is alive;
    // the archived report outlives individual datasets.
    d.node = nullptr;
    lint_report_.push_back(std::move(d));
  }
}

Status Context::DumpTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open trace file: " + path);
  }
  out << tracer_.ToChromeTraceJson(counters_.Snapshot());
  out.flush();
  if (!out) {
    return Status::IoError("failed writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace rankjoin::minispark

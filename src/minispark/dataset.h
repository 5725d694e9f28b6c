#ifndef RANKJOIN_MINISPARK_DATASET_H_
#define RANKJOIN_MINISPARK_DATASET_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "minispark/approx_size.h"
#include "minispark/context.h"
#include "minispark/fault.h"
#include "minispark/lint.h"
#include "minispark/partitioner.h"
#include "minispark/plan.h"
#include "minispark/serde.h"
#include "minispark/shuffle.h"

namespace rankjoin::minispark {

/// Thrown by the actions (Collect(), Count(), partitions()) on a failed
/// dataset: a stage that exhausted its task retries, a kFail
/// disk-pressure IoError, or a cooperative stop (Context::Cancel(), a
/// job deadline). The failure unwinds out of arbitrarily deep pipeline
/// code instead of aborting; Result-returning entry points convert it
/// back into its structured Status with CatchJobFailure() below.
class JobFailedError : public std::runtime_error {
 public:
  explicit JobFailedError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Runs a pipeline body, converting a JobFailedError unwind into its
/// Status as an error value. Wrap the body of any Result-returning
/// pipeline entry point whose internals use the throwing actions:
///
///   Result<JoinResult> RunFooJoin(...) {
///     return minispark::CatchJobFailure([&]() -> Result<JoinResult> {
///       ...
///     });
///   }
template <typename Fn>
auto CatchJobFailure(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JobFailedError& failed) {
    return failed.status();
  }
}

/// Hasher adapter that routes through ShuffleHash so that pair keys and
/// integer keys are both well-mixed (see partitioner.h).
struct ShuffleHasher {
  template <typename K>
  size_t operator()(const K& key) const {
    return static_cast<size_t>(ShuffleHash(key));
  }
};

/// An immutable, partitioned, typed collection — the minispark analog of
/// a Spark RDD.
///
/// Evaluation is LAZY: narrow transformations (Map, Filter, FlatMap,
/// MapPartitionsWithIndex) build a lightweight logical plan — a
/// push-based generator composed per element — instead of running a
/// stage. The whole chain executes as ONE fused physical stage when it is
/// forced by a stage boundary:
///
///  - driver actions: Collect(), TryCollect(), Count(), partitions(),
///    Force();
///  - wide operations: PartitionByKey, GroupByKey, ReduceByKey. Each
///    has one input; it pulls that input's pending narrow chain into
///    the shuffle-write task, so the chain's intermediate results are
///    never materialized at all.
///
/// Wide operations shuffle through the ShuffleService (shuffle.h), one
/// read task per target bucket. Map tasks serialize-and-spill to temp
/// files when the context's shuffle_memory_budget_bytes is exceeded; the
/// budget defaults off, in which case the shuffle stays fully resident.
/// Record types with a usable Serde<T> (serde.h) can spill; a type
/// without one shuffles resident-only, which the plan linter flags
/// (MS004, lint.h) whenever a spill budget is set.
///
/// Forcing memoizes: the handle (and every copy of it — handles share
/// plan state) holds the materialized partitions afterwards, so a chain
/// executes at most once per forcing consumer. A dataset consumed by
/// SEVERAL wide operations re-streams its pending chain once per
/// consumer unless it is materialized first — call Force() when a
/// dataset is reused across stages, and always before harvesting side
/// effects (e.g. per-partition stat slots) of its lambdas. Lambdas in a
/// pending chain must not capture references that die before the chain
/// is forced.
///
/// Every operation has one input, so a handle's lineage is a chain of
/// cheap PlanNodes (plan.h), each pointing at its one parent, back to a
/// source. ExplainDot() renders it — pending narrow ops and shuffle
/// boundaries — as Graphviz DOT at any point, before or after execution.
///
/// Dataset handles are cheap to copy (shared ownership of the plan
/// state). All driver-side calls must come from one thread.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;
  /// Push-based consumer of chain output elements.
  using Sink = std::function<void(const T&)>;
  /// Runs the fused chain for one partition, pushing every element of
  /// the output partition into the sink. Must be safe to invoke
  /// concurrently for distinct partition indices.
  using Generator = std::function<void(int, const Sink&)>;

  /// Wraps already-materialized partitions (no stage is run).
  Dataset(Context* ctx, std::shared_ptr<const Partitions> partitions)
      : state_(std::make_shared<State>()) {
    RANKJOIN_CHECK(ctx != nullptr);
    RANKJOIN_CHECK(partitions != nullptr);
    state_->ctx = ctx;
    state_->num_partitions = static_cast<int>(partitions->size());
    state_->materialized = std::move(partitions);
    state_->plan =
        MakePlanNode(PlanNode::Kind::kSource, "source", "", nullptr,
                     {.num_partitions = state_->num_partitions});
  }

  Context* context() const { return state_->ctx; }
  int num_partitions() const { return state_->num_partitions; }

  /// Outcome of this dataset's production. A dataset is POISONED (non-OK
  /// status) when the stage that produced it — or any ancestor stage —
  /// failed after exhausting task retries. Poisoned datasets carry empty
  /// partitions; the actions (Collect, Count, partitions) refuse them by
  /// throwing JobFailedError, TryCollect returns the Status, and wide
  /// operations propagate the poison downstream without running stages.
  const Status& status() const { return state_->error; }

  /// True when this handle holds materialized partitions (i.e. its chain
  /// has been forced, or it was created from materialized data).
  bool materialized() const { return state_->materialized != nullptr; }

  /// "+"-joined logical ops pending in this handle's unforced chain
  /// (empty when materialized). Exposed for metrics and tests.
  std::string pending_ops() const { return JoinStrings(state_->ops); }

  /// Root of this dataset's lineage chain (see plan.h). Never null.
  std::shared_ptr<const PlanNode> plan_node() const { return state_->plan; }

  /// Replaces the lineage root. Internal hook for the wide operations
  /// and dataset factories below, which construct their output from raw
  /// partitions and then attach the real lineage; not meant for user
  /// code. Const because lineage lives in the shared plan state.
  void SetPlanNode(std::shared_ptr<const PlanNode> node) const {
    state_->plan = std::move(node);
  }

  /// Poisons this dataset with a non-OK execution status. Internal hook
  /// for the wide operations, which construct their output from raw
  /// partitions and then attach the outcome of the producing stages; not
  /// meant for user code. Const because the error lives in the shared
  /// plan state.
  void SetError(Status error) const { state_->error = std::move(error); }

  /// Renders the whole logical plan of this dataset — every ancestor op
  /// back to the source, including pending (not yet executed) narrow
  /// ops and shuffle boundaries — as Graphviz DOT.
  /// Purely driver-side: never forces the chain. With tracing on
  /// (Context::Options::trace_level >= kCounters), nodes whose ops have
  /// already executed are annotated with the observed in/out record
  /// counts from the job metrics; otherwise (or before any run) the
  /// rendering is the static one.
  std::string ExplainDot() const {
    // With linting enabled, flagged nodes are highlighted in red and
    // their labels carry the diagnostic codes.
    std::unordered_map<const PlanNode*, std::vector<std::string>> notes;
    if (state_->ctx->lint_level() != LintLevel::kOff) {
      for (const LintDiagnostic& d : Lint()) {
        if (d.node != nullptr) notes[d.node].push_back(d.code);
      }
    }
    std::unordered_map<uint64_t, OpMetrics> observed;
    if (state_->ctx->trace_enabled()) {
      observed = state_->ctx->metrics().AggregatedOpMetrics();
    }
    std::string dot =
        PlanToDot(state_->plan.get(), materialized(), observed, notes);
    // Driver annotations (e.g. the adaptive planner's decision summary)
    // ride along as a DOT comment header.
    const std::string& annotation = state_->ctx->plan_annotation();
    if (!annotation.empty()) {
      std::string header;
      header += "// ";
      for (char c : annotation) {
        header += c;
        if (c == '\n') header += "// ";
      }
      if (header.back() != '\n') header += '\n';
      dot = header + dot;
    }
    return dot;
  }

  /// Runs the plan linter (lint.h) over this dataset's whole lineage chain
  /// with the context's current settings (thresholds, spill budget,
  /// registered broadcasts), regardless of lint_level. Purely
  /// driver-side: never forces the chain. Diagnostics' node pointers
  /// point into this plan and stay valid while the dataset is alive.
  std::vector<LintDiagnostic> Lint() const {
    return LintPlan(state_->plan.get(), state_->ctx->lint_settings());
  }

  /// Materialized partitions; forces the pending chain. Throws
  /// JobFailedError on a poisoned dataset.
  const Partitions& partitions() const { return ForceChecked(); }

  /// Total number of elements across partitions (action: forces;
  /// throws JobFailedError on a poisoned dataset).
  size_t Count() const {
    size_t n = 0;
    for (const auto& p : ForceChecked()) n += p.size();
    return n;
  }

  /// Gathers all elements to the driver, in partition order (action:
  /// forces). At Context::Options::lint_level >= kWarn the plan is
  /// linted first; in kError mode an error-severity diagnostic aborts
  /// the job here, before the pending chain runs (the wide operations
  /// under it ran when they were built). Throws JobFailedError on a
  /// poisoned dataset (task retry exhaustion, unrecoverable spill loss,
  /// a stop); TryCollect() returns the Status instead.
  std::vector<T> Collect() const {
    MaybeAutoLint();
    const Partitions& parts = ForceChecked();
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// Collect() that returns a failed stage's Status instead of throwing:
  /// either all elements in partition order or the first error of the
  /// failed stage (with every ancestor failure propagated through).
  Result<std::vector<T>> TryCollect() const {
    return CatchJobFailure([this]() -> Result<std::vector<T>> {
      return Collect();
    });
  }

  /// Forces the pending chain NOW, without throwing on a failed stage,
  /// and returns the execution status. The handle (and all copies) keeps
  /// the result, so every later consumer — including several wide
  /// operations — reads the partitions instead of re-running the chain.
  /// Required before harvesting side effects of chain lambdas: the join
  /// pipelines force before they read the stat slots their lambdas
  /// filled, and a failed stage then surfaces through the dataset's
  /// consumers.
  const Status& Force() const {
    Materialize();
    return state_->error;
  }

  /// Streams partition `i` through `sink` WITHOUT materializing this
  /// dataset: materialized partitions are iterated, pending chains are
  /// executed in the calling task. This is the hook wide operations use
  /// to pull a narrow chain into their shuffle-write phase.
  template <typename Fn>
  void StreamPartition(int i, Fn&& sink) const {
    const State& s = *state_;
    // Streaming a poisoned source cannot produce correct data, and
    // retrying the consuming task would not change that — fail the
    // consumer permanently.
    if (!s.error.ok()) throw NonRetryableError(s.error);
    if (s.materialized) {
      for (const T& t : (*s.materialized)[static_cast<size_t>(i)]) sink(t);
    } else {
      s.gen(i, Sink(std::forward<Fn>(sink)));
    }
  }

  /// Element-wise transformation (narrow dependency, no shuffle).
  template <typename F>
  auto Map(F fn, const std::string& name = "map") const {
    using U = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    return ChainElementwise<U>(
        [fn = std::move(fn)](const T& t,
                             const typename Dataset<U>::Sink& emit) {
          emit(fn(t));
        },
        "map", name);
  }

  /// One-to-many transformation; `fn` returns a vector of outputs.
  template <typename F>
  auto FlatMap(F fn, const std::string& name = "flatMap") const {
    using Vec = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    using U = typename Vec::value_type;
    return ChainElementwise<U>(
        [fn = std::move(fn)](const T& t,
                             const typename Dataset<U>::Sink& emit) {
          for (const U& u : fn(t)) emit(u);
        },
        "flatMap", name);
  }

  /// Keeps the elements for which `pred` returns true.
  template <typename F>
  Dataset<T> Filter(F pred, const std::string& name = "filter") const {
    return ChainElementwise<T>(
        [pred = std::move(pred)](const T& t, const Sink& emit) {
          if (pred(t)) emit(t);
        },
        "filter", name);
  }

  /// Whole-partition transformation: `fn(partition_index, elements)`
  /// returns the output partition. This is the iterator-style hook the
  /// paper's VJ-NL variant exploits (Section 4.1). Still a narrow
  /// dependency: it fuses with the surrounding chain, but needs the
  /// whole input partition gathered before `fn` runs.
  template <typename F>
  auto MapPartitionsWithIndex(F fn,
                              const std::string& name = "mapPartitions") const {
    using Vec = std::decay_t<decltype(fn(0, std::declval<const std::vector<T>&>()))>;
    using U = typename Vec::value_type;
    auto src = state_;
    std::shared_ptr<const OpTag> tag =
        state_->ctx->MakeOpTag("mapPartitions", name);
    typename Dataset<U>::Generator gen =
        [src, fn = std::move(fn), tag](int i,
                                       const typename Dataset<U>::Sink& emit) {
          TaskTrace* trace = tag == nullptr ? nullptr : CurrentTaskTrace();
          OpCounts* counts = trace == nullptr ? nullptr : trace->Slot(tag.get());
          Vec produced;
          const auto apply = [&](const std::vector<T>& input) {
            if (counts != nullptr) {
              counts->records_in += input.size();
              if (trace->timers_enabled()) {
                const auto start = std::chrono::steady_clock::now();
                produced = fn(i, input);
                counts->nanos +=
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
              } else {
                produced = fn(i, input);
              }
              counts->records_out += produced.size();
            } else {
              produced = fn(i, input);
            }
          };
          if (src->materialized) {
            apply((*src->materialized)[static_cast<size_t>(i)]);
          } else {
            std::vector<T> input;
            src->gen(i, Sink([&input](const T& t) { input.push_back(t); }));
            apply(input);
          }
          for (const U& u : produced) emit(u);
        };
    return Chain<U>(std::move(gen), "mapPartitions", name, tag);
  }

 private:
  template <typename U>
  friend class Dataset;

  /// Shared plan state: either materialized partitions, or a pending
  /// fused chain (generator + the logical ops it fuses). The lineage
  /// node survives materialization (ExplainDot works at any time).
  struct State {
    Context* ctx = nullptr;
    int num_partitions = 0;
    /// Set once the chain has been forced (or from the start for source
    /// datasets); the generator is released at that point.
    std::shared_ptr<const Partitions> materialized;
    Generator gen;
    /// Logical op kinds and user names of the pending chain, in order.
    std::vector<std::string> ops;
    std::vector<std::string> names;
    /// Non-OK once a producing stage (or an ancestor) failed. Poisoned
    /// handles hold empty partitions; see Dataset::status().
    Status error;
    /// Lineage chain root (plan.h). Strings and parent pointers only.
    std::shared_ptr<const PlanNode> plan;
  };

  explicit Dataset(std::shared_ptr<State> state) : state_(std::move(state)) {}

  /// Collect()-time lint hook. At kWarn: log + archive diagnostics in
  /// Context::lint_report(). At kError: additionally reject the plan
  /// (abort) when any diagnostic has error severity — a bad plan dies
  /// cheaply on the driver instead of mid-job.
  void MaybeAutoLint() const {
    Context* ctx = state_->ctx;
    const LintLevel level = ctx->lint_level();
    if (level == LintLevel::kOff) return;
    std::vector<LintDiagnostic> diags = Lint();
    if (diags.empty()) return;
    bool fatal = false;
    if (level == LintLevel::kError) {
      for (const LintDiagnostic& d : diags) {
        fatal = fatal || d.severity == LintSeverity::kError;
      }
    }
    RANKJOIN_LOG(Warning) << "plan lint found " << diags.size()
                          << " issue(s):\n"
                          << FormatLintDiagnostics(diags);
    const std::string rendered = fatal ? FormatLintDiagnostics(diags) : "";
    ctx->RecordLintDiagnostics(std::move(diags));
    if (fatal) {
      RANKJOIN_CHECK(false) << "plan rejected by lint "
                               "(RANKJOIN_LINT_LEVEL=error):\n"
                            << rendered;
    }
  }

  static std::string JoinStrings(const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) {
      if (!out.empty()) out += '+';
      out += p;
    }
    return out;
  }

  template <typename U>
  static uint64_t MaxSize(const std::vector<std::vector<U>>& parts) {
    uint64_t m = 0;
    for (const auto& p : parts) m = std::max<uint64_t>(m, p.size());
    return m;
  }

  /// Builds the lazy successor dataset for a narrow op, inheriting this
  /// handle's pending chain metadata (fused op list).
  template <typename U>
  Dataset<U> Chain(typename Dataset<U>::Generator gen, const std::string& op,
                   const std::string& name,
                   const std::shared_ptr<const OpTag>& tag = nullptr) const {
    auto state = std::make_shared<typename Dataset<U>::State>();
    state->ctx = state_->ctx;
    state->num_partitions = state_->num_partitions;
    state->gen = std::move(gen);
    state->error = state_->error;
    if (!state_->materialized) {
      state->ops = state_->ops;
      state->names = state_->names;
    }
    state->ops.push_back(op);
    state->names.push_back(name);
    state->plan =
        MakePlanNode(PlanNode::Kind::kNarrow, op, name, state_->plan,
                     {.op_id = tag != nullptr ? tag->id : 0,
                      .num_partitions = state_->num_partitions});
    return Dataset<U>(std::move(state));
  }

  /// Chain() for per-element steps: `step(element, emit)` pushes the
  /// op's outputs for one input element.
  ///
  /// Tracing: with trace_level >= kCounters the Context hands the op a
  /// tag, and the generator tallies in/out elements (and, at kTimers,
  /// inclusive step time) into the CURRENT TASK's TaskTrace — strictly
  /// task-local scratch installed by RunStage and merged on the driver
  /// after the stage barrier, so the hot loop writes no shared state.
  /// With tracing off the tag is null and the untraced branch below is
  /// exactly the pre-tracing code: the only added cost is one null check
  /// per generator invocation per partition, nothing per element.
  template <typename U, typename Step>
  Dataset<U> ChainElementwise(Step step, const std::string& op,
                              const std::string& name) const {
    auto src = state_;
    std::shared_ptr<const OpTag> tag = state_->ctx->MakeOpTag(op, name);
    typename Dataset<U>::Generator gen =
        [src, step = std::move(step), tag](
            int i, const typename Dataset<U>::Sink& emit) {
          TaskTrace* trace = tag == nullptr ? nullptr : CurrentTaskTrace();
          if (trace == nullptr) {
            if (src->materialized) {
              for (const T& t :
                   (*src->materialized)[static_cast<size_t>(i)]) {
                step(t, emit);
              }
            } else {
              src->gen(i, Sink([&step, &emit](const T& t) { step(t, emit); }));
            }
            return;
          }
          OpCounts* counts = trace->Slot(tag.get());
          const bool timed = trace->timers_enabled();
          typename Dataset<U>::Sink counted_emit = [&emit,
                                                    counts](const U& u) {
            ++counts->records_out;
            emit(u);
          };
          auto run_step = [&step, &counted_emit, counts, timed](const T& t) {
            ++counts->records_in;
            if (timed) {
              const auto start = std::chrono::steady_clock::now();
              step(t, counted_emit);
              counts->nanos +=
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
            } else {
              step(t, counted_emit);
            }
          };
          if (src->materialized) {
            for (const T& t : (*src->materialized)[static_cast<size_t>(i)]) {
              run_step(t);
            }
          } else {
            src->gen(i, Sink([&run_step](const T& t) { run_step(t); }));
          }
        };
    return Chain<U>(std::move(gen), op, name, tag);
  }

  /// Materialize() plus the poisoned-dataset check shared by the
  /// throwing actions: a failed dataset throws JobFailedError, which
  /// unwinds to a CatchJobFailure() entry point as its Status.
  const Partitions& ForceChecked() const {
    const Partitions& parts = Materialize();
    if (!state_->error.ok()) throw JobFailedError(state_->error);
    return parts;
  }

  /// Forces the pending chain: runs ONE fused stage (a task per
  /// partition) that streams the chain into output partitions, records
  /// the fused ops and materialization volume, and memoizes the result.
  /// Each attempt clears its own output partition first and writes it
  /// directly, so a retry after a mid-chain throw starts from an empty
  /// partition. A stage failure (retries exhausted) poisons the handle
  /// instead of aborting; the memoized partitions are then empty.
  ///
  /// With a CheckpointManager attached and a checkpoint-portable T, the
  /// materialized partitions are additionally persisted under the plan
  /// fingerprint, and a resume run restores them instead of executing
  /// the stage when the saved blob verifies.
  const Partitions& Materialize() const {
    State& s = *state_;
    if (s.materialized) return *s.materialized;
    auto out = std::make_shared<Partitions>(
        static_cast<size_t>(s.num_partitions));
    if (!s.error.ok()) {
      s.materialized = std::move(out);
      s.gen = nullptr;
      s.ops.clear();
      s.names.clear();
      return *s.materialized;
    }
    bool restored = false;
    [[maybe_unused]] CheckpointManager* ckpt = nullptr;
    [[maybe_unused]] uint64_t ckpt_fp = 0;
    [[maybe_unused]] uint64_t ckpt_occ = 0;
    [[maybe_unused]] std::string ckpt_key;
    if constexpr (checkpoint_portable_v<T>) {
      ckpt = s.ctx->checkpoint_manager();
      if (ckpt != nullptr) {
        // Allocate the key for EVERY eligible stage, even while
        // checkpointing is disabled: a resumed driver must replay the
        // identical per-fingerprint key sequence.
        ckpt_fp = PlanFingerprint(s.plan.get());
        ckpt_key = ckpt->NextKey(ckpt_fp, &ckpt_occ);
        std::string blob;
        if (ckpt->resume() && ckpt->enabled() &&
            ckpt->TryLoadBlob(ckpt_key, &blob)) {
          Partitions parts;
          if (DecodeCheckpointPartitions<T>(blob, &parts) &&
              static_cast<int>(parts.size()) == s.num_partitions) {
            *out = std::move(parts);
            restored = true;
            s.ctx->telemetry().OnCheckpointSkipped();
            s.ctx->counters().Add("checkpoint.stages_skipped", 1);
            RANKJOIN_LOG(Info) << "checkpoint: skipped stage '"
                               << JoinStrings(s.names) << "' (" << ckpt_key
                               << ")";
          } else {
            // Corrupt or mismatched blob: count it and fall through to
            // a clean re-execution — never emit unverified data.
            s.ctx->telemetry().OnCheckpointRestoreFailed();
            s.ctx->counters().Add("checkpoint.restore_failed", 1);
          }
        }
      }
    }
    if (!restored) {
      Context* ctx = s.ctx;
      StageMetrics stage = ctx->RunStage(
          JoinStrings(s.names), s.num_partitions, [&s, &out, ctx](int i) {
            std::vector<T>& dest = (*out)[static_cast<size_t>(i)];
            dest.clear();
            // Deadline/cancel probe at record granularity: long fused
            // chains notice a stop request between records.
            uint64_t probe = 0;
            s.gen(i, Sink([&dest, &probe, ctx](const T& t) {
                    dest.push_back(t);
                    if (((++probe) & 1023u) == 0 && ctx->StopRequested()) {
                      throw NonRetryableError(ctx->StopStatus());
                    }
                  }));
          });
      stage.fused_ops = JoinStrings(s.ops);
      if (!stage.status.ok()) {
        s.error = stage.status;
        *out = Partitions(static_cast<size_t>(s.num_partitions));
      }
      if constexpr (checkpoint_portable_v<T>) {
        if (ckpt != nullptr && ckpt->enabled() && s.error.ok()) {
          FaultInjector& injector = s.ctx->fault_injector();
          const Status saved = ckpt->SaveBlob(
              ckpt_key,
              EncodeCheckpointPartitions<T>(
                  *out, ckpt_fp, ckpt_occ,
                  injector.enabled() ? &injector : nullptr));
          if (!saved.ok()) {
            // kFail disk-pressure policy: surface the IoError.
            s.error = saved;
            *out = Partitions(static_cast<size_t>(s.num_partitions));
          } else if (ckpt->enabled()) {
            // (enabled() may have flipped off if SaveBlob degraded.)
            s.ctx->telemetry().OnCheckpointSaved();
          }
        }
      }
      for (const auto& p : *out) {
        stage.materialized_elements += p.size();
        for (const T& t : p) stage.materialized_bytes += ApproxSize(t);
      }
      stage.max_partition_size = MaxSize(*out);
      s.ctx->AddStage(std::move(stage));
    }
    s.materialized = std::move(out);
    // Release the generator (and the upstream plan it captures). The
    // lineage node stays — ExplainDot still renders the full history.
    s.gen = nullptr;
    s.ops.clear();
    s.names.clear();
    return *s.materialized;
  }

  std::shared_ptr<State> state_;
};

/// Creates a Dataset by splitting `data` into `num_partitions` contiguous
/// chunks (like sc.parallelize). Uses the context default when
/// `num_partitions` <= 0. Source datasets are born materialized: the
/// split runs on the driver and records no stage, so the first stage of
/// a pipeline is the first one that runs its operators.
template <typename T>
Dataset<T> Parallelize(Context* ctx, std::vector<T> data,
                       int num_partitions = -1) {
  if (num_partitions <= 0) num_partitions = ctx->default_partitions();
  auto parts = std::make_shared<typename Dataset<T>::Partitions>(
      static_cast<size_t>(num_partitions));
  const size_t n = data.size();
  const size_t per = (n + static_cast<size_t>(num_partitions) - 1) /
                     static_cast<size_t>(num_partitions);
  for (size_t i = 0; i < n; ++i) {
    (*parts)[per == 0 ? 0 : i / per].push_back(std::move(data[i]));
  }
  Dataset<T> out(ctx, std::move(parts));
  out.SetPlanNode(MakePlanNode(PlanNode::Kind::kSource, "parallelize", "",
                               nullptr, {.num_partitions = num_partitions}));
  return out;
}

namespace internal {

/// Checkpoint plumbing of the wide operations. A wide op's RESULT node
/// only exists after its stages ran, so the key derives from the PARENT
/// plan fingerprint mixed with the op kind, user name, and requested
/// bucket count, all fixed before any stage executes. The restored
/// partition count then defines the output dataset's partitioning,
/// which matches the original run by construction (it IS the original
/// run's result).
struct WideCheckpointSlot {
  CheckpointManager* mgr = nullptr;
  std::string key;
  uint64_t fingerprint = 0;
  uint64_t occurrence = 0;
};

inline WideCheckpointSlot OpenWideCheckpoint(Context* ctx, const char* op,
                                             const std::string& name, int n,
                                             const PlanNode* parent) {
  WideCheckpointSlot slot;
  slot.mgr = ctx->checkpoint_manager();
  if (slot.mgr == nullptr) return slot;
  uint64_t fp = FingerprintMixString(0x776964655f6f70ull /* "wide_op" */, op);
  fp = FingerprintMixString(fp, name);
  fp = FingerprintMix(fp, static_cast<uint64_t>(n));
  fp = FingerprintMix(fp, PlanFingerprint(parent));
  slot.fingerprint = fp;
  slot.key = slot.mgr->NextKey(fp, &slot.occurrence);
  return slot;
}

/// Attempts to restore a wide op's output from its checkpoint. True
/// (with *out filled) only when resuming and the saved blob verified —
/// the caller then skips the shuffle stages entirely.
template <typename T>
bool TryRestoreWide(Context* ctx, const WideCheckpointSlot& slot,
                    const std::string& name,
                    std::vector<std::vector<T>>* out) {
  if (slot.mgr == nullptr || !slot.mgr->resume() || !slot.mgr->enabled()) {
    return false;
  }
  std::string blob;
  if (!slot.mgr->TryLoadBlob(slot.key, &blob)) return false;
  std::vector<std::vector<T>> parts;
  if (!DecodeCheckpointPartitions<T>(blob, &parts) || parts.empty()) {
    ctx->telemetry().OnCheckpointRestoreFailed();
    ctx->counters().Add("checkpoint.restore_failed", 1);
    return false;
  }
  *out = std::move(parts);
  ctx->telemetry().OnCheckpointSkipped();
  ctx->counters().Add("checkpoint.stages_skipped", 1);
  RANKJOIN_LOG(Info) << "checkpoint: skipped wide op '" << name << "' ("
                     << slot.key << ")";
  return true;
}

/// Persists a wide op's output after a successful run. On a write
/// failure the disk-pressure policy applies inside SaveBlob; only the
/// kFail policy surfaces an error, through *out_status (the caller's
/// stage-status slot, which poisons the result dataset).
template <typename T>
void MaybeSaveWide(Context* ctx, const WideCheckpointSlot& slot,
                   const std::vector<std::vector<T>>& parts,
                   Status* out_status) {
  if (slot.mgr == nullptr || !slot.mgr->enabled()) return;
  if (out_status != nullptr && !out_status->ok()) return;
  FaultInjector& injector = ctx->fault_injector();
  const Status saved = slot.mgr->SaveBlob(
      slot.key,
      EncodeCheckpointPartitions<T>(parts, slot.fingerprint, slot.occurrence,
                                    injector.enabled() ? &injector : nullptr));
  if (!saved.ok()) {
    if (out_status != nullptr) *out_status = saved;
  } else if (slot.mgr->enabled()) {
    // (enabled() may have flipped off if SaveBlob degraded itself.)
    ctx->telemetry().OnCheckpointSaved();
  }
}

/// Hash-shuffles key-value records into `n` buckets by key through the
/// ShuffleService. The shuffle-write phase STREAMS the input — a pending
/// narrow chain on `input` executes inside the write tasks and is never
/// materialized — serializing buckets to spill files when the context's
/// memory budget is exceeded. Read task p then reads bucket p into
/// output partition p. Shuffle volume is accounted inside the read
/// tasks. A write- or read-stage failure surfaces through `*out_status`
/// (the partitions are then empty). `*out_max_bucket_bytes` receives the
/// serialized size of the largest bucket for PlanNode stamping (0 when
/// pipelined — bucket sizes are not collected in that mode).
template <typename K, typename V>
std::shared_ptr<const std::vector<std::vector<std::pair<K, V>>>> ShuffleByKey(
    const Dataset<std::pair<K, V>>& input, int n, const std::string& name,
    Status* out_status, uint64_t* out_max_bucket_bytes) {
  Context* ctx = input.context();
  using KV = std::pair<K, V>;
  [[maybe_unused]] WideCheckpointSlot ckpt;
  if constexpr (checkpoint_portable_v<KV>) {
    ckpt = OpenWideCheckpoint(ctx, "shuffleByKey", name, n,
                              input.plan_node().get());
    auto restored = std::make_shared<std::vector<std::vector<KV>>>();
    if (TryRestoreWide<KV>(ctx, ckpt, name, restored.get())) {
      return restored;
    }
  }
  HashPartitioner partitioner(n);
  const auto route = [partitioner](const std::pair<K, V>& kv) {
    return partitioner.PartitionOf(kv.first);
  };
  if (ctx->pipelined_stages()) {
    auto parts = PipelinedExchange(input, n, name, route, out_status);
    if constexpr (checkpoint_portable_v<KV>) {
      MaybeSaveWide<KV>(ctx, ckpt, *parts, out_status);
    }
    return parts;
  }
  auto service = ShuffleWrite<std::pair<K, V>>(input, n, name, route);
  for (uint64_t bytes : service->bucket_bytes()) {
    *out_max_bucket_bytes = std::max(*out_max_bucket_bytes, bytes);
  }
  auto parts = ShuffleRead(ctx, service.get(), name, out_status);
  if constexpr (checkpoint_portable_v<KV>) {
    MaybeSaveWide<KV>(ctx, ckpt, *parts, out_status);
  }
  return parts;
}

}  // namespace internal

/// Hash-partitions a key-value dataset by key (Spark partitionBy).
/// Records with equal keys land in the same output partition. Wide
/// operation: executes immediately, pulling any pending narrow chain of
/// `ds` into the shuffle-write tasks. The output has `n` partitions
/// (context default when n <= 0).
template <typename K, typename V>
Dataset<std::pair<K, V>> PartitionByKey(const Dataset<std::pair<K, V>>& ds,
                                        int n = -1,
                                        const std::string& name =
                                            "partitionBy") {
  Context* ctx = ds.context();
  if (n <= 0) n = ctx->default_partitions();
  Status error;
  uint64_t max_bucket_bytes = 0;
  auto parts = internal::ShuffleByKey(ds, n, name, &error, &max_bucket_bytes);
  Dataset<std::pair<K, V>> out(ctx, std::move(parts));
  if (!error.ok()) out.SetError(std::move(error));
  out.SetPlanNode(
      MakePlanNode(PlanNode::Kind::kWide, "partitionBy", name,
                   ds.plan_node(),
                   {.num_partitions = out.num_partitions(),
                    .serde_ok = has_serde_v<std::pair<K, V>>,
                    .max_bucket_bytes = max_bucket_bytes}));
  return out;
}

/// Groups values by key after a hash shuffle (Spark groupByKey). Output
/// preserves per-key arrival order of values (deterministic: mapper order
/// then in-partition order). The per-partition grouping step is a narrow
/// op on the shuffled data and stays lazy — it fuses with whatever
/// consumes the groups.
template <typename K, typename V>
Dataset<std::pair<K, std::vector<V>>> GroupByKey(
    const Dataset<std::pair<K, V>>& ds, int n = -1,
    const std::string& name = "groupByKey") {
  Dataset<std::pair<K, V>> shuffled = PartitionByKey(ds, n, name);
  return shuffled.MapPartitionsWithIndex(
      [](int /*index*/, const std::vector<std::pair<K, V>>& part) {
        std::unordered_map<K, size_t, ShuffleHasher> slot;
        std::vector<std::pair<K, std::vector<V>>> out;
        for (const auto& kv : part) {
          auto [it, inserted] = slot.try_emplace(kv.first, out.size());
          if (inserted) out.push_back({kv.first, {}});
          out[it->second].second.push_back(kv.second);
        }
        return out;
      },
      name + "/group");
}

/// Merges values per key with a binary combiner (Spark reduceByKey).
/// Combines map-side before shuffling, like Spark's combiner: the same
/// merge step runs as the map-side combine, which fuses with the
/// upstream chain and the shuffle write, and as the reduce after it.
template <typename K, typename V, typename F>
Dataset<std::pair<K, V>> ReduceByKey(const Dataset<std::pair<K, V>>& ds, F fn,
                                     int n = -1,
                                     const std::string& name = "reduceByKey") {
  const auto merge = [fn](int /*index*/,
                          const std::vector<std::pair<K, V>>& part) {
    std::unordered_map<K, size_t, ShuffleHasher> slot;
    std::vector<std::pair<K, V>> out;
    for (const auto& kv : part) {
      auto [it, inserted] = slot.try_emplace(kv.first, out.size());
      if (inserted) {
        out.push_back(kv);
      } else {
        out[it->second].second = fn(out[it->second].second, kv.second);
      }
    }
    return out;
  };
  Dataset<std::pair<K, V>> combined =
      ds.MapPartitionsWithIndex(merge, name + "/combine");
  return PartitionByKey(combined, n, name)
      .MapPartitionsWithIndex(merge, name + "/reduce");
}

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_DATASET_H_

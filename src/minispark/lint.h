#ifndef RANKJOIN_MINISPARK_LINT_H_
#define RANKJOIN_MINISPARK_LINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minispark/plan.h"

namespace rankjoin::minispark {

/// How aggressively the plan linter runs (Context::Options::lint_level,
/// overridable with the RANKJOIN_LINT_LEVEL env var):
///
///   kOff    — never runs automatically; Dataset::Lint() still works.
///   kWarn   — every Collect() lints its plan first, logs diagnostics,
///             and records them in Context::lint_report().
///   kError  — like kWarn, but a diagnostic with kError severity
///             aborts the job before any task runs (bad plans are
///             rejected cheaply, not discovered mid-execution).
enum class LintLevel {
  kOff = 0,
  kWarn = 1,
  kError = 2,
};

/// Parses "off"/"warn"/"error" (or 0/1/2, "warning", "err"), in any
/// case; returns nullopt on anything else.
std::optional<LintLevel> ParseLintLevel(const std::string& value);

const char* LintLevelName(LintLevel level);

enum class LintSeverity {
  kWarning,
  kError,
};

const char* LintSeverityName(LintSeverity severity);

/// One broadcast variable registered with Context::MakeBroadcast, with
/// its driver-side size estimate (ApproxSize). Broadcasts live outside
/// the lineage, so the linter receives them through LintSettings.
struct BroadcastRecord {
  std::string name;
  uint64_t approx_bytes = 0;
};

/// Execution-environment facts the checks need beyond the lineage itself.
/// Context::lint_settings() fills this from its Options; tests can
/// construct one directly to probe a single check.
struct LintSettings {
  /// Shuffle spill budget in effect (0 = unlimited / never spill).
  /// MS004 only fires when this is non-zero: without a budget, a
  /// serde-less shuffle record type is harmless (resident-only).
  uint64_t shuffle_memory_budget_bytes = 0;
  /// MS003 flags broadcasts estimated above this many bytes.
  uint64_t broadcast_max_bytes = 64ull << 20;
  /// MS005 flags a lineage chain containing at least this many wide
  /// nodes with the same (op, name) signature — the fingerprint of a
  /// barrier rebuilt inside a driver-side loop.
  int loop_repeat_threshold = 3;
  /// Broadcasts registered so far (MS003 input).
  std::vector<BroadcastRecord> broadcasts;
};

/// One structured diagnostic. `node` points into the linted plan (valid
/// only while that plan is alive — Context nulls it when archiving into
/// the cross-plan report); `location` is a stable human-readable
/// rendering of the same spot.
struct LintDiagnostic {
  std::string code;        ///< stable id: "MS002" .. "MS005"
  LintSeverity severity = LintSeverity::kWarning;
  std::string message;
  const PlanNode* node = nullptr;
  std::string location;    ///< e.g. "map (vj/scored)" or "broadcast 'order'"
};

/// Walks the lineage chain rooted at `root` and returns every
/// diagnostic, grouped by check, each group in chain order from the
/// source. Checks:
///
///   MS002 (warning) back-to-back shuffles: a placement-only shuffle
///                   (partitionBy) directly under another shuffle, which
///                   discards its partitioning.
///   MS003 (warning) broadcast above settings.broadcast_max_bytes.
///   MS004 (error)   shuffle of a record type with no usable Serde<T>
///                   while a spill budget is set (cannot spill).
///   MS005 (warning) >= settings.loop_repeat_threshold same-signature
///                   wide nodes on the chain (barrier in a loop).
///
/// MS001, MS006 and MS007 are retired; the codes are not reused.
///
/// `root == nullptr` yields only the broadcast check (MS003).
std::vector<LintDiagnostic> LintPlan(const PlanNode* root,
                                     const LintSettings& settings);

/// Renders diagnostics one per line: "MS004 [error] message (location)".
std::string FormatLintDiagnostics(
    const std::vector<LintDiagnostic>& diagnostics);

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_LINT_H_

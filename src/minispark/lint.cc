#include "minispark/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace rankjoin::minispark {
namespace {

/// Human-readable node location: `op (name)`, or just `op` when the
/// node has no distinct user-facing name.
std::string Loc(const PlanNode* node) {
  if (node->name.empty() || node->name == node->op) return node->op;
  return node->op + " (" + node->name + ")";
}

std::string PartsStr(const PlanNode* node) {
  if (node->num_partitions <= 0) return "";
  return " [" + std::to_string(node->num_partitions) + " partitions]";
}

/// A shuffle whose only effect is data placement: its output rows are
/// its input rows, so a directly following shuffle discards everything
/// it did. Every wide node is such a partitionBy; grouping and reducing
/// run in the narrow steps after it, so a shuffle that follows them has
/// a narrow parent and is a new data movement, not a redundant one.
bool IsPlacementOnlyShuffle(const PlanNode* node) {
  return node->kind == PlanNode::Kind::kWide && node->op == "partitionBy";
}

/// The lineage chain from its source down to `root`, so every node
/// comes after its parent.
std::vector<const PlanNode*> SourceFirst(const PlanNode* root) {
  std::vector<const PlanNode*> chain;
  for (const PlanNode* node = root; node != nullptr;
       node = node->parent.get()) {
    chain.push_back(node);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

std::optional<LintLevel> ParseLintLevel(const std::string& value) {
  std::string lower;
  lower.reserve(value.size());
  for (char c : value) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "warn" || lower == "warning" || lower == "1") {
    return LintLevel::kWarn;
  }
  if (lower == "error" || lower == "err" || lower == "2") {
    return LintLevel::kError;
  }
  if (lower == "off" || lower == "0") return LintLevel::kOff;
  return std::nullopt;
}

const char* LintLevelName(LintLevel level) {
  switch (level) {
    case LintLevel::kOff:
      return "off";
    case LintLevel::kWarn:
      return "warn";
    case LintLevel::kError:
      return "error";
  }
  return "off";
}

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "warning";
}

std::vector<LintDiagnostic> LintPlan(const PlanNode* root,
                                     const LintSettings& settings) {
  std::vector<LintDiagnostic> diags;
  const std::vector<const PlanNode*> chain = SourceFirst(root);

  // MS002 — back-to-back shuffles. A placement-only shuffle directly
  // under another wide op did its data movement for nothing: the second
  // shuffle discards the first one's placement.
  for (const PlanNode* node : chain) {
    const PlanNode* parent = node->parent.get();
    if (node->kind != PlanNode::Kind::kWide || parent == nullptr ||
        !IsPlacementOnlyShuffle(parent)) {
      continue;
    }
    const bool same_count = parent->num_partitions > 0 &&
                            parent->num_partitions == node->num_partitions;
    LintDiagnostic d;
    d.code = "MS002";
    d.severity = LintSeverity::kWarning;
    d.node = parent;
    d.location = Loc(parent);
    d.message = "shuffle '" + Loc(parent) + "'" + PartsStr(parent) +
                " feeds only shuffle '" + Loc(node) + "'" + PartsStr(node) +
                ", which discards its placement (" +
                (same_count ? "redundant repartition"
                            : "incompatible partition counts") +
                "); drop the first shuffle";
    diags.push_back(std::move(d));
  }

  // MS003 — oversized broadcast. Broadcasts are driver-side values
  // copied into every task closure, so they live outside the lineage;
  // the registry arrives via settings.
  for (const BroadcastRecord& b : settings.broadcasts) {
    if (b.approx_bytes <= settings.broadcast_max_bytes) continue;
    LintDiagnostic d;
    d.code = "MS003";
    d.severity = LintSeverity::kWarning;
    d.node = nullptr;
    d.location = "broadcast '" + b.name + "'";
    d.message = "broadcast '" + b.name + "' is ~" +
                std::to_string(b.approx_bytes) +
                " bytes, above the configured limit of " +
                std::to_string(settings.broadcast_max_bytes) +
                " (lint_broadcast_max_bytes); consider shuffling it by "
                "key to the tasks that need it instead of replicating it "
                "to every task";
    diags.push_back(std::move(d));
  }

  // MS004 — shuffle record type without a usable Serde while a spill
  // budget is set. The shuffle still runs, but resident-only: it can
  // never honor the budget.
  if (settings.shuffle_memory_budget_bytes > 0) {
    for (const PlanNode* node : chain) {
      if (node->kind != PlanNode::Kind::kWide || node->serde_ok) continue;
      LintDiagnostic d;
      d.code = "MS004";
      d.severity = LintSeverity::kError;
      d.node = node;
      d.location = Loc(node);
      d.message = "shuffle '" + Loc(node) +
                  "' moves a record type with no usable Serde<> while a "
                  "spill budget of " +
                  std::to_string(settings.shuffle_memory_budget_bytes) +
                  " bytes is set; it cannot spill and stays "
                  "memory-resident (define a Serde specialization next "
                  "to the record type)";
      diags.push_back(std::move(d));
    }
  }

  // MS005 — barrier inside a loop. A driver-side loop that rebuilds the
  // same shuffle per iteration leaves a fingerprint in the lineage: the
  // same (op, name) signature on several wide nodes of the chain. The
  // diagnostic points at the signature's last (most downstream) node.
  std::unordered_map<std::string, std::pair<int, const PlanNode*>> repeats;
  for (const PlanNode* node : chain) {
    if (node->kind != PlanNode::Kind::kWide) continue;
    auto& [count, last] = repeats[node->op + '\x1f' + node->name];
    ++count;
    last = node;
  }
  for (const PlanNode* node : chain) {
    if (node->kind != PlanNode::Kind::kWide) continue;
    const auto& [count, last] = repeats[node->op + '\x1f' + node->name];
    if (last != node || count < settings.loop_repeat_threshold) continue;
    LintDiagnostic d;
    d.code = "MS005";
    d.severity = LintSeverity::kWarning;
    d.node = node;
    d.location = Loc(node);
    d.message = "wide op '" + Loc(node) + "' appears " +
                std::to_string(count) + " times along the lineage (threshold " +
                std::to_string(settings.loop_repeat_threshold) +
                "): a barrier rebuilt per loop iteration "
                "re-materializes its whole prefix each time; hoist it out "
                "of the loop or Force() the loop-invariant prefix";
    diags.push_back(std::move(d));
  }

  return diags;
}

std::string FormatLintDiagnostics(
    const std::vector<LintDiagnostic>& diagnostics) {
  std::ostringstream os;
  for (const LintDiagnostic& d : diagnostics) {
    os << d.code << " [" << LintSeverityName(d.severity) << "] "
       << d.message;
    if (!d.location.empty()) os << " (at " << d.location << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace rankjoin::minispark

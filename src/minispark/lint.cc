#include "minispark/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
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

/// Topological order with every node AFTER all of its ancestors
/// (parents point upstream), via iterative post-order DFS.
std::vector<const PlanNode*> TopoOrder(const PlanNode* root) {
  std::vector<const PlanNode*> topo;
  if (root == nullptr) return topo;
  std::unordered_set<const PlanNode*> done;
  std::vector<std::pair<const PlanNode*, size_t>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (done.count(node) > 0) {
      stack.pop_back();
      continue;
    }
    if (next_parent < node->parents.size()) {
      const PlanNode* parent = node->parents[next_parent++].get();
      if (done.count(parent) == 0) stack.emplace_back(parent, 0);
    } else {
      done.insert(node);
      topo.push_back(node);
      stack.pop_back();
    }
  }
  return topo;
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
  const std::vector<const PlanNode*> topo = TopoOrder(root);

  // Consumer edge counts. Duplicate edges (e.g. a union of a dataset
  // with itself) count individually: each one is a re-execution of a
  // pending chain.
  std::unordered_map<const PlanNode*, int> consumers;
  for (const PlanNode* node : topo) {
    for (const auto& parent : node->parents) ++consumers[parent.get()];
  }

  // MS001 — multi-consumer pending lineage without Cache().
  // `lazy` nodes re-execute per consumer; materialized sources, wide
  // outputs, and Cache() pins are marked lazy=false at construction.
  for (const PlanNode* node : topo) {
    auto it = consumers.find(node);
    if (node->lazy && it != consumers.end() && it->second >= 2) {
      LintDiagnostic d;
      d.code = "MS001";
      d.severity = LintSeverity::kError;
      d.node = node;
      d.location = Loc(node);
      d.message = "pending chain '" + Loc(node) + "' feeds " +
                  std::to_string(it->second) +
                  " consumers without Cache(); every consumer "
                  "re-executes the chain from its last barrier";
      diags.push_back(std::move(d));
    }
  }

  // MS007 — Cache() with exactly one consumer in the linted plan: the
  // inverse of MS001. A pin that only ever feeds one downstream chain
  // bought nothing — the chain would have streamed through it anyway —
  // while paying a full materialization of the dataset. A cache at the
  // DAG root (zero consumer edges) is NOT flagged: the linted plan IS
  // the cached dataset, and its reuse (Collect() twice, later plans)
  // happens outside this DAG. That blind spot is symmetric: a
  // single-consumer cache whose dataset handle is also collected
  // directly is a cross-plan reuse this per-plan walk cannot see, which
  // is why MS007 is a warning while MS001 is an error.
  for (const PlanNode* node : topo) {
    if (node->kind != PlanNode::Kind::kCache) continue;
    auto it = consumers.find(node);
    if (it == consumers.end() || it->second != 1) continue;
    // The pin itself is just named "cache"; the chain it pins carries
    // the user-facing name, so point the diagnostic there.
    const PlanNode* pinned =
        node->parents.empty() ? node : node->parents.front().get();
    LintDiagnostic d;
    d.code = "MS007";
    d.severity = LintSeverity::kWarning;
    d.node = node;
    d.location = Loc(pinned);
    d.message = "cache over '" + Loc(pinned) +
                "' has exactly one consumer in this plan; the "
                "materialization buys no reuse here — drop the Cache() "
                "(or use Force() if the chain must run eagerly), or "
                "keep the pin only if the dataset is reused by a later "
                "plan";
    diags.push_back(std::move(d));
  }

  // MS002 — back-to-back shuffles. A placement-only shuffle whose sole
  // consumer is another wide op did its data movement for nothing: the
  // second shuffle discards the first one's placement. A Cache() pin in
  // between is taken as intent to reuse the placed data elsewhere and
  // suppresses the check.
  for (const PlanNode* node : topo) {
    if (node->kind != PlanNode::Kind::kWide) continue;
    for (const auto& parent_ptr : node->parents) {
      const PlanNode* parent = parent_ptr.get();
      if (!IsPlacementOnlyShuffle(parent)) continue;
      if (consumers[parent] != 1) continue;
      const bool same_count = parent->num_partitions > 0 &&
                              parent->num_partitions == node->num_partitions;
      LintDiagnostic d;
      d.code = "MS002";
      d.severity = LintSeverity::kWarning;
      d.node = parent;
      d.location = Loc(parent);
      d.message = "shuffle '" + Loc(parent) + "'" + PartsStr(parent) +
                  " feeds only shuffle '" + Loc(node) + "'" +
                  PartsStr(node) +
                  ", which discards its placement (" +
                  (same_count ? "redundant repartition"
                              : "incompatible partition counts") +
                  "); drop the first shuffle";
      diags.push_back(std::move(d));
    }
  }

  // MS003 — oversized broadcast. Broadcasts are driver-side values
  // copied into every task closure, so they live outside the DAG; the
  // registry arrives via settings.
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
    for (const PlanNode* node : topo) {
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
  // same shuffle per iteration leaves a fingerprint in the lineage: a
  // chain of same-signature wide nodes along one root-to-source path.
  // DP over the topo order: per node, the best same-signature wide
  // chain length among its ancestry, keyed by (op, name) signature.
  {
    std::unordered_map<const PlanNode*,
                       std::unordered_map<std::string, int>>
        best_chain;
    std::unordered_map<std::string, std::pair<int, const PlanNode*>>
        deepest;  // signature -> (max chain, node reaching it)
    for (const PlanNode* node : topo) {
      std::unordered_map<std::string, int> merged;
      for (const auto& parent : node->parents) {
        for (const auto& [sig, len] : best_chain[parent.get()]) {
          int& slot = merged[sig];
          slot = std::max(slot, len);
        }
      }
      if (node->kind == PlanNode::Kind::kWide) {
        const std::string sig = node->op + '\x1f' + node->name;
        int& slot = merged[sig];
        slot += 1;
        auto& record = deepest[sig];
        if (slot > record.first) record = {slot, node};
      }
      best_chain[node] = std::move(merged);
    }
    for (const PlanNode* node : topo) {
      for (const auto& [sig, record] : deepest) {
        if (record.second != node) continue;
        if (record.first < settings.loop_repeat_threshold) continue;
        LintDiagnostic d;
        d.code = "MS005";
        d.severity = LintSeverity::kWarning;
        d.node = node;
        d.location = Loc(node);
        d.message = "wide op '" + Loc(node) + "' appears " +
                    std::to_string(record.first) +
                    " times along one lineage path (threshold " +
                    std::to_string(settings.loop_repeat_threshold) +
                    "): a barrier rebuilt per loop iteration "
                    "re-materializes its whole prefix each time; hoist "
                    "it out of the loop or Cache() the loop-invariant "
                    "prefix";
        diags.push_back(std::move(d));
      }
    }
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

#include "minispark/plan.h"

#include <sstream>
#include <unordered_map>

namespace rankjoin::minispark {
namespace {

const char* ShapeFor(PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kSource:
      return "ellipse";
    case PlanNode::Kind::kNarrow:
      return "box";
    case PlanNode::Kind::kWide:
      return "box";
    case PlanNode::Kind::kCache:
      return "folder";
  }
  return "box";
}

/// DOT-escapes a label chunk.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::shared_ptr<const PlanNode> MakePlanNode(
    PlanNode::Kind kind, std::string op, std::string name,
    std::vector<std::shared_ptr<const PlanNode>> parents,
    PlanNodeAttrs attrs) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  node->op = std::move(op);
  node->name = std::move(name);
  node->op_id = attrs.op_id;
  node->num_partitions = attrs.num_partitions;
  node->lazy = attrs.lazy;
  node->serde_ok = attrs.serde_ok;
  node->max_bucket_bytes = attrs.max_bucket_bytes;
  node->parents = std::move(parents);
  return node;
}

namespace {

const std::unordered_map<uint64_t, OpMetrics>& NoObservations() {
  static const std::unordered_map<uint64_t, OpMetrics> kEmpty;
  return kEmpty;
}

const std::unordered_map<const PlanNode*, std::vector<std::string>>&
NoNotes() {
  static const std::unordered_map<const PlanNode*, std::vector<std::string>>
      kEmpty;
  return kEmpty;
}

}  // namespace

namespace {

/// splitmix64 finalizer (same mixer as the fault injector's draws).
uint64_t FpMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a: std::hash<std::string> is not stable across standard
/// libraries, and the fingerprint must be.
uint64_t FpFnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FingerprintNode(
    const PlanNode* node,
    std::unordered_map<const PlanNode*, uint64_t>* memo) {
  if (node == nullptr) return 0x706c616e5f6e696cull;  // "plan_nil"
  if (auto it = memo->find(node); it != memo->end()) return it->second;
  uint64_t h = FpMix64(0x706c616e5f667072ull);  // "plan_fpr"
  h = FpMix64(h ^ static_cast<uint64_t>(node->kind));
  h = FpMix64(h ^ FpFnv1a(node->op));
  h = FpMix64(h ^ FpFnv1a(node->name));
  h = FpMix64(h ^ static_cast<uint64_t>(node->num_partitions));
  for (const auto& parent : node->parents) {
    h = FpMix64(h ^ FingerprintNode(parent.get(), memo));
  }
  (*memo)[node] = h;
  return h;
}

}  // namespace

uint64_t PlanFingerprint(const PlanNode* root) {
  std::unordered_map<const PlanNode*, uint64_t> memo;
  return FingerprintNode(root, &memo);
}

uint64_t FingerprintMix(uint64_t h, uint64_t token) {
  return FpMix64(h ^ token);
}

uint64_t FingerprintMixString(uint64_t h, const std::string& s) {
  return FpMix64(h ^ FpFnv1a(s));
}

std::string PlanToDot(const PlanNode* root, bool root_materialized) {
  return PlanToDot(root, root_materialized, NoObservations(), NoNotes());
}

std::string PlanToDot(
    const PlanNode* root, bool root_materialized,
    const std::unordered_map<uint64_t, OpMetrics>& observed) {
  return PlanToDot(root, root_materialized, observed, NoNotes());
}

std::string PlanToDot(
    const PlanNode* root, bool root_materialized,
    const std::unordered_map<uint64_t, OpMetrics>& observed,
    const std::unordered_map<const PlanNode*, std::vector<std::string>>&
        notes) {
  std::ostringstream os;
  os << "digraph plan {\n"
     << "  rankdir=BT;\n"
     << "  node [fontname=\"Helvetica\", fontsize=10];\n";
  // DFS: assign ids in discovery order, then emit nodes and edges. The
  // DAG is small (one node per logical op), so recursion depth is not a
  // concern, but an explicit stack keeps it iterative anyway.
  std::unordered_map<const PlanNode*, int> ids;
  std::vector<const PlanNode*> stack;
  std::vector<const PlanNode*> order;
  if (root != nullptr) stack.push_back(root);
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (ids.count(node) > 0) continue;
    ids[node] = static_cast<int>(ids.size());
    order.push_back(node);
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  for (const PlanNode* node : order) {
    std::string label = Escape(node->op);
    if (!node->name.empty() && node->name != node->op) {
      label += "\\n" + Escape(node->name);
    }
    if (node->op_id != 0) {
      auto it = observed.find(node->op_id);
      if (it != observed.end()) {
        label += "\\nin=" + std::to_string(it->second.records_in) +
                 " out=" + std::to_string(it->second.records_out);
        if (it->second.seconds > 0.0) {
          std::ostringstream secs;
          secs << it->second.seconds;
          label += "\\nincl_s=" + secs.str();
        }
      }
    }
    if (node->kind == PlanNode::Kind::kWide && node->max_bucket_bytes > 0) {
      label += "\\nmaxBucket=" + std::to_string(node->max_bucket_bytes) + "B";
    }
    if (node == root && root_materialized) label += "\\n[materialized]";
    auto note_it = notes.find(node);
    if (note_it != notes.end()) {
      for (const std::string& note : note_it->second) {
        label += "\\n[" + Escape(note) + "]";
      }
    }
    os << "  n" << ids[node] << " [label=\"" << label
       << "\", shape=" << ShapeFor(node->kind);
    if (node->kind == PlanNode::Kind::kWide) {
      // Doubled border marks the stage boundary a shuffle introduces.
      os << ", peripheries=2, style=bold";
    } else if (node->kind == PlanNode::Kind::kCache) {
      os << ", style=filled, fillcolor=lightgrey";
    }
    if (note_it != notes.end()) {
      // Flagged by the plan linter: draw border and text in red so the
      // offending node stands out in a rendered graph.
      os << ", color=red, fontcolor=red";
    }
    os << "];\n";
  }
  for (const PlanNode* node : order) {
    for (const auto& parent : node->parents) {
      os << "  n" << ids[parent.get()] << " -> n" << ids[node] << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace rankjoin::minispark

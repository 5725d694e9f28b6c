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
    std::shared_ptr<const PlanNode> parent, PlanNodeAttrs attrs) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  node->op = std::move(op);
  node->name = std::move(name);
  node->op_id = attrs.op_id;
  node->num_partitions = attrs.num_partitions;
  node->serde_ok = attrs.serde_ok;
  node->max_bucket_bytes = attrs.max_bucket_bytes;
  node->parent = std::move(parent);
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

}  // namespace

uint64_t PlanFingerprint(const PlanNode* root) {
  if (root == nullptr) return 0x706c616e5f6e696cull;  // "plan_nil"
  // Hash from the source down: a node mixes its own fields, then its
  // parent's fingerprint.
  std::vector<const PlanNode*> chain;
  for (const PlanNode* node = root; node != nullptr;
       node = node->parent.get()) {
    chain.push_back(node);
  }
  uint64_t parent_fp = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const PlanNode* node = *it;
    uint64_t h = FpMix64(0x706c616e5f667072ull);  // "plan_fpr"
    h = FpMix64(h ^ static_cast<uint64_t>(node->kind));
    h = FpMix64(h ^ FpFnv1a(node->op));
    h = FpMix64(h ^ FpFnv1a(node->name));
    h = FpMix64(h ^ static_cast<uint64_t>(node->num_partitions));
    if (node->parent != nullptr) h = FpMix64(h ^ parent_fp);
    parent_fp = h;
  }
  return parent_fp;
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
  // Node i is the i-th operator up the chain from the root; the edges
  // follow the nodes.
  std::vector<const PlanNode*> order;
  for (const PlanNode* node = root; node != nullptr;
       node = node->parent.get()) {
    order.push_back(node);
  }
  for (size_t id = 0; id < order.size(); ++id) {
    const PlanNode* node = order[id];
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
    os << "  n" << id << " [label=\"" << label
       << "\", shape=" << ShapeFor(node->kind);
    if (node->kind == PlanNode::Kind::kWide) {
      // Doubled border marks the stage boundary a shuffle introduces.
      os << ", peripheries=2, style=bold";
    }
    if (note_it != notes.end()) {
      // Flagged by the plan linter: draw border and text in red so the
      // offending node stands out in a rendered graph.
      os << ", color=red, fontcolor=red";
    }
    os << "];\n";
  }
  for (size_t id = 1; id < order.size(); ++id) {
    os << "  n" << id << " -> n" << id - 1 << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rankjoin::minispark

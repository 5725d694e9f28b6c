#ifndef RANKJOIN_MINISPARK_PLAN_H_
#define RANKJOIN_MINISPARK_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "minispark/metrics.h"

namespace rankjoin::minispark {

/// One logical operator in a dataset's lineage chain. Every operator
/// has one input, so a node has one parent (none for a source). Nodes
/// are cheap (strings + a parent pointer, no closures or data) and
/// immutable once built, so every Dataset handle keeps a shared_ptr to
/// its plan root and whole-plan rendering stays available after
/// execution.
struct PlanNode {
  enum class Kind {
    kSource,  ///< Parallelize / shuffle-read output
    kNarrow,  ///< map / filter / flatMap / ... (fusable)
    kWide,    ///< shuffle boundary (partitionBy)
  };

  Kind kind = Kind::kSource;
  /// Operator name ("map", "partitionBy", "parallelize", ...).
  std::string op;
  /// User-facing dataset/stage name, when one was given.
  std::string name;
  /// Trace identity of the op (OpTag::id) when the node was built with
  /// tracing enabled, 0 otherwise. Links the lineage chain to the
  /// per-operator counts in StageMetrics::op_metrics so ExplainDot can
  /// annotate nodes with observed record flow after a run.
  uint64_t op_id = 0;
  /// Output partition count at this node when known, 0 otherwise. Lets
  /// the plan linter reason about adjacent shuffles (MS002) without
  /// touching the physical layer.
  int num_partitions = 0;
  /// For wide (shuffle) nodes: whether the shuffled record type has a
  /// usable Serde (has_serde_v<T>), i.e. whether this shuffle could
  /// spill to disk if a budget forces it. MS004 flags wide nodes where
  /// this is false while a spill budget is configured.
  bool serde_ok = true;
  /// For executed wide nodes: serialized bytes of the largest shuffle
  /// target bucket (0 when unknown / not yet run). ExplainDot labels
  /// the node with it, so a skewed shuffle shows in the plan.
  uint64_t max_bucket_bytes = 0;
  /// The operator's input; null for a source.
  std::shared_ptr<const PlanNode> parent;
};

/// Optional per-node attributes for MakePlanNode; designated-initializer
/// friendly so call sites name only what they know.
struct PlanNodeAttrs {
  uint64_t op_id = 0;
  int num_partitions = 0;
  bool serde_ok = true;
  uint64_t max_bucket_bytes = 0;
};

/// Builds a node; convenience over aggregate init at call sites.
std::shared_ptr<const PlanNode> MakePlanNode(
    PlanNode::Kind kind, std::string op, std::string name,
    std::shared_ptr<const PlanNode> parent, PlanNodeAttrs attrs = {});

/// Stable structural fingerprint of the lineage chain rooted at `root`:
/// a pure hash over each node's kind, op, name, and partition count plus
/// the fingerprint of its parent. Deliberately EXCLUDES runtime-dependent
/// fields (op_id, max_bucket_bytes) so the same logical job produces the
/// same fingerprint across processes — that stability is what keys the
/// checkpoint manifest for crash resume (see docs/MINISPARK.md,
/// "Checkpoint & resume"). A null root hashes to a fixed non-zero
/// constant.
uint64_t PlanFingerprint(const PlanNode* root);

/// Mixes one more token (a value or a string) into a fingerprint with
/// the same stable mixer PlanFingerprint uses. Wide operations derive
/// their checkpoint keys this way: the RESULT node is only built after
/// the stages run, so the key mixes the PARENT fingerprint with the op
/// kind, user name, and requested bucket count instead.
uint64_t FingerprintMix(uint64_t h, uint64_t token);
uint64_t FingerprintMixString(uint64_t h, const std::string& s);

/// Renders the lineage chain rooted at `root` as Graphviz DOT: narrow ops
/// as plain boxes, wide ops (stage boundaries) as doubled boxes, sources
/// as ellipses. `root_materialized` marks the
/// root with the "materialized" annotation (the handle holds partitions,
/// nothing is pending).
std::string PlanToDot(const PlanNode* root, bool root_materialized);

/// Like PlanToDot, but additionally annotates every node whose op_id
/// appears in `observed` (keyed by OpTag id — see
/// JobMetrics::AggregatedOpMetrics) with the recorded in/out element
/// counts and, when timed, inclusive seconds. Nodes without observations
/// render exactly as in the static form, so a pre-run or untraced plan
/// degrades gracefully.
std::string PlanToDot(
    const PlanNode* root, bool root_materialized,
    const std::unordered_map<uint64_t, OpMetrics>& observed);

/// Like the observed form, but additionally highlights every node with
/// an entry in `notes` (keyed by node pointer): the note strings —
/// typically lint diagnostic codes such as "MS004" — are appended to the
/// node label in brackets and the node is drawn in red. Nodes without
/// notes render exactly as before, and the output stays valid DOT.
std::string PlanToDot(
    const PlanNode* root, bool root_materialized,
    const std::unordered_map<uint64_t, OpMetrics>& observed,
    const std::unordered_map<const PlanNode*, std::vector<std::string>>&
        notes);

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_PLAN_H_

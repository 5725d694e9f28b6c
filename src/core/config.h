#ifndef RANKJOIN_CORE_CONFIG_H_
#define RANKJOIN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace rankjoin {

/// The similarity-join algorithms of the paper's evaluation (Section 7).
enum class Algorithm {
  /// O(n^2) exact reference (not in the paper; testing/ground truth).
  kBruteForce,
  /// Vernica Join adapted to top-k rankings (Section 4).
  kVJ,
  /// VJ with iterator-style nested loops per posting list (Section 4.1).
  kVJNL,
  /// Clustering join: order, cluster, join centroids, expand (Section 5).
  kCL,
  /// CL plus repartitioning of large posting lists (Section 6).
  kCLP,
  /// V-SMART-style aggregation baseline (Section 2 related work).
  kVSmart,
  /// Cost-based planner: samples the dataset, estimates the cost of the
  /// strategies above, and executes the cheapest plan (src/plan/).
  kAuto,
};

/// Parses an algorithm name, case-insensitively. Accepted spellings:
///   "vj" | "vj-nl"/"vjnl" | "cl" | "cl-p"/"clp" | "v-smart"/"vsmart" |
///   "brute-force"/"bruteforce"/"bf" | "auto"
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// Short lower-case name of an algorithm ("vj-nl").
const char* AlgorithmName(Algorithm algorithm);

/// One configuration object covering every algorithm; fields that do not
/// apply to the selected algorithm are ignored.
struct SimilarityJoinConfig {
  Algorithm algorithm = Algorithm::kVJ;

  /// Normalized Footrule distance threshold, in [0, 1).
  double theta = 0.2;

  /// CL/CL-P: normalized clustering threshold (paper default 0.03).
  double theta_c = 0.03;

  /// CL-P: partitioning threshold delta (posting lists larger than this
  /// are split, Algorithm 3). Required > 0 for kCLP; ignored otherwise.
  uint64_t delta = 0;

  /// Shuffle partitions; -1 uses the execution context's default.
  int num_partitions = -1;

  /// Filters and variants (all paper defaults).
  bool position_filter = true;
  bool reorder_by_frequency = true;
  bool singleton_optimization = true;
  bool triangle_upper_shortcut = true;

  /// Measure posting-list sizes after the group-by materializes and
  /// engage Algorithm-3 repartitioning only when the largest list
  /// exceeds delta — CL upgrades itself to CL-P mid-job instead of
  /// unconditionally splitting. Set by the kAuto planner for CL plans;
  /// requires delta > 0 to have any effect.
  bool adaptive_repartition = false;

  /// Checks parameter ranges and algorithm-specific requirements for a
  /// dataset with rankings of length `k`.
  Status Validate(int k) const;
};

}  // namespace rankjoin

#endif  // RANKJOIN_CORE_CONFIG_H_

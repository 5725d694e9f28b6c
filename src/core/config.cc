#include "core/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "ranking/footrule.h"

namespace rankjoin {

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "vj") return Algorithm::kVJ;
  if (lower == "vj-nl" || lower == "vjnl") return Algorithm::kVJNL;
  if (lower == "cl") return Algorithm::kCL;
  if (lower == "cl-p" || lower == "clp") return Algorithm::kCLP;
  if (lower == "v-smart" || lower == "vsmart") return Algorithm::kVSmart;
  if (lower == "brute-force" || lower == "bruteforce" || lower == "bf") {
    return Algorithm::kBruteForce;
  }
  if (lower == "auto") return Algorithm::kAuto;
  return Status::InvalidArgument("unknown algorithm: " + name);
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "brute-force";
    case Algorithm::kVJ:
      return "vj";
    case Algorithm::kVJNL:
      return "vj-nl";
    case Algorithm::kCL:
      return "cl";
    case Algorithm::kCLP:
      return "cl-p";
    case Algorithm::kVSmart:
      return "v-smart";
    case Algorithm::kAuto:
      return "auto";
  }
  return "?";
}

Status SimilarityJoinConfig::Validate(int k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(theta >= 0.0 && theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (std::isnan(theta_c)) {
    return Status::InvalidArgument("theta_c must be a number");
  }
  if (algorithm == Algorithm::kCL || algorithm == Algorithm::kCLP) {
    if (!(theta_c >= 0.0 && theta_c <= theta)) {
      return Status::InvalidArgument("theta_c must be in [0, theta]");
    }
    const uint32_t enlarged =
        RawThreshold(theta, k) + 2 * RawThreshold(theta_c, k);
    if (enlarged >= MaxFootrule(k)) {
      return Status::InvalidArgument(
          "theta + 2*theta_c must stay below the maximum distance");
    }
  }
  if (algorithm == Algorithm::kCLP && delta == 0) {
    return Status::InvalidArgument(
        "CL-P requires a positive partitioning threshold delta");
  }
  if (algorithm == Algorithm::kAuto && !(theta_c >= 0.0)) {
    // The planner picks theta_c/delta itself (clamping theta_c into the
    // feasible [0, theta] band), so only outright-invalid inputs are
    // rejected here; the chosen concrete plan is re-validated before
    // execution.
    return Status::InvalidArgument("theta_c must be >= 0");
  }
  if (num_partitions == 0 || num_partitions < -1) {
    return Status::InvalidArgument(
        "num_partitions must be positive (or -1 for the context default)");
  }
  return Status::OK();
}

}  // namespace rankjoin

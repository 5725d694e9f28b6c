#include "join/stats.h"

#include <algorithm>
#include <sstream>

namespace rankjoin {

void JoinStats::MergeCounters(const JoinStats& other) {
  candidates += other.candidates;
  position_filtered += other.position_filtered;
  triangle_filtered += other.triangle_filtered;
  signature_filtered += other.signature_filtered;
  verified += other.verified;
  verify_passed += other.verify_passed;
  repeat_pairs += other.repeat_pairs;
  emitted_unverified += other.emitted_unverified;
  result_pairs += other.result_pairs;
  clusters += other.clusters;
  singletons += other.singletons;
  cluster_members += other.cluster_members;
  lists_repartitioned += other.lists_repartitioned;
  chunk_pair_joins += other.chunk_pair_joins;
}

void JoinStats::PublishCounters(minispark::CounterRegistry* registry,
                                const std::string& prefix) const {
  if (registry == nullptr || !registry->enabled()) return;
  registry->Add(prefix + ".candidates", candidates);
  registry->Add(prefix + ".position_filtered", position_filtered);
  registry->Add(prefix + ".triangle_filtered", triangle_filtered);
  registry->Add(prefix + ".signature_filtered", signature_filtered);
  registry->Add(prefix + ".verified", verified);
  registry->Add(prefix + ".verify_passed", verify_passed);
  registry->Add(prefix + ".repeat_pairs", repeat_pairs);
  registry->Add(prefix + ".emitted_unverified", emitted_unverified);
}

std::string JoinStats::ToString() const {
  std::ostringstream os;
  os << "candidates=" << candidates
     << " position_filtered=" << position_filtered
     << " triangle_filtered=" << triangle_filtered
     << " signature_filtered=" << signature_filtered
     << " verified=" << verified
     << " verify_passed=" << verify_passed
     << " repeat_pairs=" << repeat_pairs
     << " emitted_unverified=" << emitted_unverified
     << " result_pairs=" << result_pairs;
  if (clusters > 0 || singletons > 0) {
    os << "\nclusters=" << clusters << " singletons=" << singletons
       << " cluster_members=" << cluster_members;
  }
  if (lists_repartitioned > 0) {
    os << "\nlists_repartitioned=" << lists_repartitioned
       << " chunk_pair_joins=" << chunk_pair_joins;
  }
  os << "\nphases: ordering=" << ordering_seconds
     << "s clustering=" << clustering_seconds
     << "s joining=" << joining_seconds
     << "s expansion=" << expansion_seconds << "s total=" << total_seconds
     << 's';
  return os.str();
}

void SortPairs(std::vector<ResultPair>* pairs) {
  std::sort(pairs->begin(), pairs->end());
}

}  // namespace rankjoin

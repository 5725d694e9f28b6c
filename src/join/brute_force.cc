#include "join/brute_force.h"

#include "common/stopwatch.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"

namespace rankjoin {

JoinResult BruteForceJoin(const RankingDataset& dataset, double theta) {
  Stopwatch watch;
  JoinResult result;
  const uint32_t raw_theta = RawThreshold(theta, dataset.k);

  // The identity ordering is fine — brute force needs only the by_item
  // arrays for the merge-join distance, which keeps this oracle
  // independent of the pipelines' lane kernel. Ordering off the columnar
  // store covers mmap-born datasets whose Ranking vector is empty.
  const ItemOrder order;
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(dataset.store(), order);

  const size_t n = ordered.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ++result.stats.candidates;
      ++result.stats.verified;
      if (FootruleDistanceBounded(ordered[i], ordered[j], raw_theta)) {
        ++result.stats.verify_passed;
        result.pairs.push_back(MakeResultPair(ordered[i].id, ordered[j].id));
      }
    }
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = watch.ElapsedSeconds();
  result.stats.joining_seconds = result.stats.total_seconds;
  return result;
}

}  // namespace rankjoin

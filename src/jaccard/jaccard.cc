#include "jaccard/jaccard.h"

#include "common/logging.h"

namespace rankjoin {
namespace {

/// Slack absorbing double rounding on threshold comparisons; far below
/// the minimum spacing of distinct Jaccard values for any practical k.
constexpr double kEpsilon = 1e-9;

}  // namespace

int SetOverlap(const OrderedRanking& a, const OrderedRanking& b) {
  int overlap = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.by_item.size() && j < b.by_item.size()) {
    if (a.by_item[i].item == b.by_item[j].item) {
      ++overlap;
      ++i;
      ++j;
    } else if (a.by_item[i].item < b.by_item[j].item) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

double JaccardDistanceFromOverlap(int overlap, int k) {
  RANKJOIN_DCHECK(k >= 1);
  RANKJOIN_DCHECK(overlap >= 0 && overlap <= k);
  return 1.0 - static_cast<double>(overlap) /
                   static_cast<double>(2 * k - overlap);
}

double JaccardDistance(const OrderedRanking& a, const OrderedRanking& b) {
  RANKJOIN_DCHECK(a.k == b.k);
  return JaccardDistanceFromOverlap(SetOverlap(a, b), a.k);
}

bool JaccardQualifies(int overlap, int k, double theta) {
  return JaccardDistanceFromOverlap(overlap, k) <= theta + kEpsilon;
}

int JaccardMinOverlap(double theta, int k) {
  // Distance decreases as overlap grows; find the smallest qualifying
  // overlap by scanning (k is small).
  for (int o = 0; o <= k; ++o) {
    if (JaccardQualifies(o, k, theta)) return o;
  }
  return k + 1;  // theta < 0: nothing qualifies
}

}  // namespace rankjoin

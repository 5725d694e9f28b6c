#ifndef RANKJOIN_JACCARD_JACCARD_H_
#define RANKJOIN_JACCARD_JACCARD_H_

#include <cstdint>

#include "ranking/ranking.h"

namespace rankjoin {

/// Jaccard-distance support for fixed-size sets — the extension the
/// paper names as future work ("we plan to extend our approach to sets
/// where the Jaccard distance is used", Section 8).
///
/// Rankings double as sets here: the rank information is ignored and
/// the item-sorted `by_item` array enables O(k) overlap computation.
/// The Jaccard distance d(A, B) = 1 - |A∩B| / |A∪B| is a metric
/// (Steinhaus), so the CL framework's triangle-inequality reasoning
/// carries over unchanged.

/// Number of common items of two sets in item-sorted representation.
int SetOverlap(const OrderedRanking& a, const OrderedRanking& b);

/// Jaccard distance of two size-k sets with overlap `o`:
/// 1 - o / (2k - o).
double JaccardDistanceFromOverlap(int overlap, int k);

/// Jaccard distance of two equal-size sets.
double JaccardDistance(const OrderedRanking& a, const OrderedRanking& b);

/// True if sets with overlap `o` are within distance `theta`
/// (inclusive, with a tiny epsilon so thresholds that exactly hit a
/// representable distance behave intuitively). This single predicate
/// defines qualification everywhere — prefix bound and verification
/// can never disagree.
bool JaccardQualifies(int overlap, int k, double theta);

/// Minimum overlap two size-k sets must share for their Jaccard
/// distance to possibly be <= theta: the closed form is
/// ceil(2k(1-theta) / (2-theta)); computed here by scanning the exact
/// predicate. The joins map theta to the raw threshold
/// 2(k - JaccardMinOverlap) on |A xor B| = 2(k - overlap), exactly.
int JaccardMinOverlap(double theta, int k);

}  // namespace rankjoin

#endif  // RANKJOIN_JACCARD_JACCARD_H_

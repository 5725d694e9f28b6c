#ifndef RANKJOIN_RANKING_FOOTRULE_H_
#define RANKJOIN_RANKING_FOOTRULE_H_

#include <cstdint>
#include <optional>

#include "ranking/ranking.h"

namespace rankjoin {

/// Spearman's Footrule distance adapted to top-k lists (Fagin et al.,
/// paper Section 3): ranks run 0..k-1, items missing from a list get the
/// artificial rank l = k, and the distance is the L1 difference over the
/// union of the two domains.
///
/// Because each ranking embeds into a fixed vector (coordinate = rank,
/// missing = k) independent of the comparison partner, the distance is an
/// L1 metric — the triangle inequality the CL algorithm relies on holds
/// exactly.

/// Largest possible raw distance between two top-k lists: k*(k+1),
/// attained by disjoint rankings.
constexpr uint32_t MaxFootrule(int k) {
  return static_cast<uint32_t>(k) * static_cast<uint32_t>(k + 1);
}

/// Converts a normalized threshold theta in [0, 1] to the raw integer
/// domain. A pair qualifies iff raw_distance <= RawThreshold(theta, k).
uint32_t RawThreshold(double theta, int k);

/// Converts a raw distance to the normalized [0, 1] domain.
double NormalizeDistance(uint32_t raw, int k);

/// Raw Footrule distance between two rankings of the same length.
/// O(k) extra space; intended for tests, examples, and as an independent
/// reference for the kernels.
uint32_t FootruleDistance(const Ranking& a, const Ranking& b);

/// Raw Footrule distance via merge-join over the item-sorted entries.
/// O(k) time, no allocation.
uint32_t FootruleDistance(const OrderedRanking& a, const OrderedRanking& b);

/// Threshold-bounded distance: returns the raw distance if it is
/// <= `bound`, otherwise nullopt (early exit once the partial sum
/// exceeds the bound). The kernel of the brute-force oracles and planner
/// sampling; the distributed joins and range search verify with
/// PairKernel over join-store rows (ranking/join_store.h).
std::optional<uint32_t> FootruleDistanceBounded(const OrderedRanking& a,
                                                const OrderedRanking& b,
                                                uint32_t bound);

/// Position filter (paper Section 4, from prior work [19]): if any item
/// has a rank difference greater than raw_theta / 2 between the two
/// rankings (missing items at rank k), the distance exceeds raw_theta.
/// Returns true if the pair SURVIVES the filter given the ranks of one
/// shared item. Integer form of |r_a - r_b| <= raw_theta / 2.
constexpr bool PositionFilterPasses(int rank_a, int rank_b,
                                    uint32_t raw_theta) {
  const uint32_t diff = static_cast<uint32_t>(
      rank_a > rank_b ? rank_a - rank_b : rank_b - rank_a);
  return 2 * diff <= raw_theta;
}

/// Whether the position filter can fail any pair of rankings of length
/// k: some rank difference (at most k - 1) exceeds raw_theta / 2.
constexpr bool PositionFilterCanFire(int k, uint32_t raw_theta) {
  return raw_theta / 2 + 1 < static_cast<uint32_t>(k);
}

}  // namespace rankjoin

#endif  // RANKJOIN_RANKING_FOOTRULE_H_

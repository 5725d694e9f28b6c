#ifndef RANKJOIN_JOIN_ESTIMATE_H_
#define RANKJOIN_JOIN_ESTIMATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ranking/flat_rankings.h"

namespace rankjoin {

class ItemOrder;

/// Expected posting-list length under a Zipf item model (paper Eq. 4,
/// from [18]): E[len] = sum_i n * f(i; s, v')^2, where n is the number
/// of indexed rankings, f the Zipf frequency of the item at popularity
/// rank i with skew s, and v' the number of distinct items occurring in
/// the prefixes. This is the expected length of the posting list hit by
/// a random prefix token — the statistic the paper suggests for picking
/// the partitioning threshold delta (Section 6).
double EstimatePostingListLength(size_t n, double s, size_t v_prime);

/// Measured counterpart: the length of every posting list of an
/// inverted index over the prefixes of `views`, longest first. With
/// `order == nullptr` the prefix is the first `prefix_size` items in
/// original rank order; with an ItemOrder it is each view's
/// `prefix_size` canonically-smallest (rarest) items, mirroring what
/// frequency reordering would index. Used to validate Eq. 4, in the
/// delta-selection example and by the kAuto planner's sample.
std::vector<size_t> MeasurePostingListLengths(
    std::span<const RankingView> views, int prefix_size,
    const ItemOrder* order = nullptr);

/// Suggests a partitioning threshold delta: a multiple of the expected
/// posting-list length, so only clearly oversized (skew-tail) lists are
/// split. `headroom` defaults to 4x.
uint64_t SuggestDelta(size_t n, double s, size_t v_prime,
                      double headroom = 4.0);

/// Data-driven variant: derives delta from the MEASURED posting lists
/// (MeasurePostingListLengths) of the actual (frequency-reordered)
/// prefix index instead of the Eq. 4 model. More accurate when
/// reordering has reshaped the lists — Eq. 4 models the raw Zipf item
/// distribution, but the prefix after reordering holds each ranking's
/// rarest items (see EXPERIMENTS.md).
uint64_t SuggestDeltaMeasured(std::span<const RankingView> views,
                              int prefix_size, double headroom = 4.0,
                              const ItemOrder* order = nullptr);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_ESTIMATE_H_

#ifndef RANKJOIN_JOIN_REPARTITION_H_
#define RANKJOIN_JOIN_REPARTITION_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "join/local_join.h"
#include "join/stats.h"
#include "minispark/dataset.h"

namespace rankjoin {

/// One posting list after the prefix flat-map + groupByKey: the key item
/// and the rankings whose prefix contains it.
using PostingGroup = std::pair<ItemId, std::vector<PrefixPosting>>;

/// Self-join kernel applied to one posting list.
using LocalJoinFn = std::function<void(const std::vector<PrefixPosting>&,
                                       std::vector<ScoredPair>*, JoinStats*)>;

/// R-S join kernel applied to a pair of sub-partitions of one list.
using LocalRsJoinFn = std::function<void(
    const std::vector<PrefixPosting>&, const std::vector<PrefixPosting>&,
    std::vector<ScoredPair>*, JoinStats*)>;

/// Runs `local_join` over every posting group (the plain VJ reduce step).
/// Per-partition statistics are merged into `stats`.
minispark::Dataset<ScoredPair> JoinGroups(
    const minispark::Dataset<PostingGroup>& groups, LocalJoinFn local_join,
    JoinStats* stats);

/// Algorithm 3 of the paper: posting lists with more than `delta`
/// rankings are split into sub-partitions of at most `delta` elements.
/// Every sub-partition is self-joined with `local_join`, and every pair
/// of sub-partitions of the same list is joined with `rs_join`, the
/// lower sub-partition on the left. The split emits each of these joins
/// as a work unit keyed by (item, unit), and one shuffle spreads the
/// units over `num_partitions * 2` partitions (the paper increases the
/// partition count to redistribute load; DESIGN.md deviation 2).
///
/// Lists of size <= delta take the plain JoinGroups path. A driver-side
/// measurement of the materialized posting lists decides whether any
/// list exceeds delta; when none does (or delta == 0) this is
/// JoinGroups exactly, and the split, spread and chunk-join stages do
/// not run.
///
/// `adaptive` only bumps the "repartition.skew_upgrades" counter when a
/// list is split: CL runs this with its planner-measured delta, so it
/// upgrades itself to CL-P mid-job when the data turns out skewed.
minispark::Dataset<ScoredPair> JoinGroupsWithRepartitioning(
    const minispark::Dataset<PostingGroup>& groups, uint64_t delta,
    int num_partitions, LocalJoinFn local_join, LocalRsJoinFn rs_join,
    JoinStats* stats, bool adaptive = false);

}  // namespace rankjoin

#endif  // RANKJOIN_JOIN_REPARTITION_H_

#ifndef RANKJOIN_SEARCH_RANGE_SEARCH_H_
#define RANKJOIN_SEARCH_RANGE_SEARCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "join/stats.h"
#include "ranking/join_store.h"
#include "ranking/ranking.h"
#include "ranking/reorder.h"

namespace rankjoin {

/// Similarity range search over top-k rankings — the substrate of the
/// paper's prior work [18] ("The Sweet Spot between Inverted Indices and
/// Metric-Space Indexing"), whose prefix bounds, position filter, and
/// posting-list estimate this paper reuses. Two index structures are
/// provided; both answer Query(q, theta) = { x | d(q, x) <= theta }
/// exactly, verifying on join-store rows with the joins' PairKernel the
/// candidates that the signature bound (SignatureBound) does not rule
/// out.

/// Inverted index over canonical prefixes. Built once for a maximum
/// supported threshold; queries may use any theta <= max_theta.
///
/// Query cost is driven by the posting lists of the query's prefix
/// items — cheap for small theta (short prefixes of rare items), and
/// degrading as theta grows, which is precisely the VJ behavior the
/// paper measures in Figure 6. Queries are safe to run concurrently.
class PrefixRangeIndex {
 public:
  /// Builds the index. `max_theta` (normalized, < 1) bounds the
  /// thresholds later queries may use; larger values index longer
  /// prefixes.
  static Result<PrefixRangeIndex> Build(const RankingDataset& dataset,
                                        double max_theta);

  /// Returns the ids of all rankings within `theta` of `query`
  /// (excluding a ranking equal to the query's id, if present).
  /// `stats`, when non-null, accumulates candidate/filter counters.
  Result<std::vector<RankingId>> Query(const Ranking& query, double theta,
                                       JoinStats* stats = nullptr) const;

  size_t size() const { return store_.size(); }
  int k() const { return store_.k(); }
  double max_theta() const { return max_theta_; }

 private:
  PrefixRangeIndex() = default;

  /// One prefix item of an indexed ranking.
  struct Posting {
    RowIndex row = 0;
    /// Original rank of the item inside that ranking.
    uint16_t rank = 0;
  };
  /// The slice [begin, end) of postings_ that holds one item's list.
  struct PostingRange {
    size_t begin = 0;
    size_t end = 0;
  };

  double max_theta_ = 0;
  /// The global frequency order; queries are canonicalized under it.
  ItemOrder order_;
  /// One row per indexed ranking, canonicalized under order_.
  JoinStore store_;
  /// Every posting list, one after another, rows ascending in each.
  std::vector<Posting> postings_;
  /// item -> its list in postings_.
  std::unordered_map<ItemId, PostingRange> lists_;
};

/// Metric-space index: rankings are grouped around pivots (greedy
/// farthest-first selection) and stored with their distance to the
/// pivot. Queries prune whole groups by the pivot radius and individual
/// members by the triangle inequality, verifying only the survivors —
/// the "coarse index" side of [18]'s sweet-spot trade-off: robust to
/// large theta, insensitive to item frequencies.
class CoarseRangeIndex {
 public:
  /// Builds the index with `num_pivots` pivot groups (clamped to the
  /// dataset size).
  static Result<CoarseRangeIndex> Build(const RankingDataset& dataset,
                                        int num_pivots, uint64_t seed = 17);

  /// Exact range query; `stats` accumulates triangle-filter counters.
  Result<std::vector<RankingId>> Query(const Ranking& query, double theta,
                                       JoinStats* stats = nullptr) const;

  size_t size() const { return store_.size(); }
  int k() const { return store_.k(); }
  int num_pivots() const { return static_cast<int>(groups_.size()); }

 private:
  CoarseRangeIndex() = default;

  struct Member {
    RowIndex row = 0;
    uint32_t distance_to_pivot = 0;
  };
  struct Group {
    RowIndex pivot = 0;
    uint32_t radius = 0;  // max member distance
    std::vector<Member> members;
  };

  /// One row per indexed ranking; only the rank-order items are read.
  JoinStore store_;
  std::vector<Group> groups_;
};

}  // namespace rankjoin

#endif  // RANKJOIN_SEARCH_RANGE_SEARCH_H_

#include "search/range_search.h"

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "join/local_join.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"

namespace rankjoin {

namespace {

Status CheckQuery(const Ranking& query, int k) {
  if (query.k() != k) {
    return Status::InvalidArgument("query length differs from index k");
  }
  if (!query.IsValid()) {
    return Status::InvalidArgument("query items must be distinct");
  }
  return Status::OK();
}

/// The query as a join-store row: its items in rank order, zero-padded
/// to whole kernel chunks.
std::vector<ItemId> QueryRow(const Ranking& query, const PairKernel& kernel) {
  std::vector<ItemId> row(static_cast<size_t>(kernel.stride()), 0);
  std::copy(query.items().begin(), query.items().end(), row.begin());
  return row;
}

/// Per-thread candidate marks over the rows of whichever index the thread
/// queries. A row is alive when its stamp is the query's generation g and
/// dead (position-filtered) at g + 1; any older stamp means unseen. Each
/// query advances g by two, so the marks clear in O(1), and the stamps
/// only grow when the thread meets a larger index.
struct CandidateMarks {
  std::vector<uint32_t> stamps;
  uint32_t generation = 0;
  /// Rows marked alive this query, in first-seen order.
  std::vector<RowIndex> alive_rows;

  void Begin(size_t rows) {
    if (stamps.size() < rows) stamps.resize(rows, 0);
    if (generation > std::numeric_limits<uint32_t>::max() - 3) {
      std::fill(stamps.begin(), stamps.end(), 0);
      generation = 0;
    }
    generation += 2;
    alive_rows.clear();
  }
};

}  // namespace

Result<PrefixRangeIndex> PrefixRangeIndex::Build(
    const RankingDataset& dataset, double max_theta) {
  if (dataset.k < 1) {
    return Status::InvalidArgument("dataset k must be >= 1");
  }
  if (!(max_theta >= 0.0 && max_theta < 1.0)) {
    return Status::InvalidArgument("max_theta must be in [0, 1)");
  }
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());

  PrefixRangeIndex index;
  index.max_theta_ = max_theta;
  index.order_ =
      ItemOrder::FromFrequencies(CountItemFrequencies(dataset.store()));
  index.store_ = JoinStore::Build(dataset.store(), index.order_);
  const JoinStore& store = index.store_;

  // Two passes over the prefixes: size every list, then put each posting
  // at its list's next free slot, so rows ascend within a list. Rows and
  // queries keep the overlap prefix, not the joins' rank-weighted one
  // (ForEachPrefixRank): the weighted prefix made queries 3.5x faster,
  // and the range-query benchmark, which keeps every latency sample,
  // then grew its peak RSS past its bound (EXPERIMENTS.md "Rank-weighted
  // prefix", ROADMAP.md item 1).
  const int prefix =
      OverlapPrefix(RawThreshold(max_theta, dataset.k), dataset.k);
  auto for_each_posting = [&](auto&& fn) {
    for (RowIndex row = 0; row < store.size(); ++row) {
      const ItemId* items = store.items(row);
      const uint16_t* canonical = store.canonical(row);
      for (int t = 0; t < prefix; ++t) {
        fn(items[canonical[t]], row, canonical[t]);
      }
    }
  };
  index.lists_.reserve(index.order_.num_items());
  for_each_posting([&](ItemId item, RowIndex, uint16_t) {
    ++index.lists_[item].end;
  });
  size_t offset = 0;
  for (auto& entry : index.lists_) {
    PostingRange& list = entry.second;
    list.begin = offset;
    offset += list.end;
    list.end = list.begin;
  }
  index.postings_.resize(offset);
  for_each_posting([&](ItemId item, RowIndex row, uint16_t rank) {
    index.postings_[index.lists_[item].end++] = {row, rank};
  });
  return index;
}

Result<std::vector<RankingId>> PrefixRangeIndex::Query(
    const Ranking& query, double theta, JoinStats* stats) const {
  RANKJOIN_RETURN_NOT_OK(CheckQuery(query, k()));
  if (!(theta >= 0.0 && theta <= max_theta_)) {
    return Status::InvalidArgument(
        "theta must be within the index's max_theta");
  }
  JoinStats local;
  if (stats == nullptr) stats = &local;

  const int k = this->k();
  const uint32_t raw_theta = RawThreshold(theta, k);
  const int prefix = OverlapPrefix(raw_theta, k);
  const PairKernel& kernel = store_.kernel();
  const std::vector<ItemId> q = QueryRow(query, kernel);
  std::vector<uint16_t> canonical(static_cast<size_t>(k));
  CanonicalRanks(q.data(), k, order_, canonical.data());

  thread_local CandidateMarks marks;
  marks.Begin(store_.size());
  const uint32_t alive = marks.generation;
  const uint32_t dead = alive + 1;
  uint64_t candidates = 0;
  uint64_t filtered = 0;
  for (int t = 0; t < prefix; ++t) {
    const uint16_t q_rank = canonical[static_cast<size_t>(t)];
    auto it = lists_.find(q[q_rank]);
    if (it == lists_.end()) continue;
    for (size_t i = it->second.begin; i < it->second.end; ++i) {
      const Posting& posting = postings_[i];
      uint32_t& stamp = marks.stamps[posting.row];
      if (stamp == dead) continue;
      if (!PositionFilterPasses(q_rank, posting.rank, raw_theta)) {
        if (stamp != alive) ++candidates;
        ++filtered;
        stamp = dead;
      } else if (stamp != alive) {
        stamp = alive;
        marks.alive_rows.push_back(posting.row);
        ++candidates;
      }
    }
  }

  const ItemSignature q_signature = SignatureOf(q.data(), k);
  std::vector<RankingId> result;
  uint64_t pruned = 0;
  uint64_t verified = 0;
  kernel.WithChunks([&](auto width) {
    constexpr int kChunks = decltype(width)::value;
    for (RowIndex row : marks.alive_rows) {
      if (marks.stamps[row] != alive || store_.id(row) == query.id()) {
        continue;
      }
      if (SignatureBound(q_signature, store_.signature(row)) > raw_theta) {
        ++pruned;
        continue;
      }
      ++verified;
      if (kernel.DistanceAt<kChunks>(q.data(), store_.items(row)) <=
          raw_theta) {
        result.push_back(store_.id(row));
      }
    }
  });
  stats->candidates += candidates;
  stats->position_filtered += filtered;
  stats->signature_filtered += pruned;
  stats->verified += verified;
  stats->result_pairs += result.size();
  return result;
}

Result<CoarseRangeIndex> CoarseRangeIndex::Build(
    const RankingDataset& dataset, int num_pivots, uint64_t seed) {
  if (dataset.k < 1) {
    return Status::InvalidArgument("dataset k must be >= 1");
  }
  if (num_pivots < 1) {
    return Status::InvalidArgument("num_pivots must be >= 1");
  }
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());

  CoarseRangeIndex index;
  index.store_ = JoinStore::Build(dataset.store(), ItemOrder());
  const JoinStore& store = index.store_;
  const size_t n = store.size();
  if (n == 0) return index;

  const size_t max_pivots = std::min(static_cast<size_t>(num_pivots), n);

  // Greedy farthest-first pivot selection: spreads the pivots out so
  // group radii stay small (tight triangle pruning).
  Rng rng(seed);
  std::vector<RowIndex> pivots;
  pivots.push_back(static_cast<RowIndex>(rng.Uniform(n)));
  std::vector<uint32_t> nearest_distance(
      n, std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> nearest_pivot(n, 0);
  auto relax = [&](size_t pivot_index) {
    for (RowIndex row = 0; row < n; ++row) {
      const uint32_t d = store.Distance(pivots[pivot_index], row);
      if (d < nearest_distance[row]) {
        nearest_distance[row] = d;
        nearest_pivot[row] = static_cast<uint32_t>(pivot_index);
      }
    }
  };
  relax(0);
  while (pivots.size() < max_pivots) {
    size_t farthest = 0;
    for (size_t i = 1; i < n; ++i) {
      if (nearest_distance[i] > nearest_distance[farthest]) farthest = i;
    }
    if (nearest_distance[farthest] == 0) break;  // all points covered
    pivots.push_back(static_cast<RowIndex>(farthest));
    relax(pivots.size() - 1);
  }

  index.groups_.resize(pivots.size());
  for (size_t g = 0; g < pivots.size(); ++g) {
    index.groups_[g].pivot = pivots[g];
  }
  for (RowIndex row = 0; row < n; ++row) {
    Group& group = index.groups_[nearest_pivot[row]];
    group.members.push_back({row, nearest_distance[row]});
    group.radius = std::max(group.radius, nearest_distance[row]);
  }
  return index;
}

Result<std::vector<RankingId>> CoarseRangeIndex::Query(
    const Ranking& query, double theta, JoinStats* stats) const {
  RANKJOIN_RETURN_NOT_OK(CheckQuery(query, k()));
  if (!(theta >= 0.0 && theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  JoinStats local;
  if (stats == nullptr) stats = &local;

  const uint32_t raw_theta = RawThreshold(theta, k());
  const PairKernel& kernel = store_.kernel();
  const std::vector<ItemId> q = QueryRow(query, kernel);
  const ItemSignature q_signature = SignatureOf(q.data(), k());

  std::vector<RankingId> result;
  for (const Group& group : groups_) {
    ++stats->verified;
    const uint32_t dq = kernel.Distance(q.data(), store_.items(group.pivot));
    // Whole-group pruning: every member m satisfies
    // d(q, m) >= d(q, pivot) - d(pivot, m) >= dq - radius.
    if (dq > group.radius + raw_theta) {
      stats->triangle_filtered += group.members.size();
      continue;
    }
    for (const Member& member : group.members) {
      const RankingId id = store_.id(member.row);
      if (id == query.id()) continue;
      ++stats->candidates;
      // Per-member triangle bound through the pivot.
      const uint32_t lower = dq > member.distance_to_pivot
                                 ? dq - member.distance_to_pivot
                                 : member.distance_to_pivot - dq;
      if (lower > raw_theta) {
        ++stats->triangle_filtered;
        continue;
      }
      // Upper bound: qualification without verification.
      if (dq + member.distance_to_pivot <= raw_theta) {
        ++stats->emitted_unverified;
        result.push_back(id);
        continue;
      }
      if (SignatureBound(q_signature, store_.signature(member.row)) >
          raw_theta) {
        ++stats->signature_filtered;
        continue;
      }
      ++stats->verified;
      if (kernel.Distance(q.data(), store_.items(member.row)) <= raw_theta) {
        result.push_back(id);
      }
    }
  }
  stats->result_pairs += result.size();
  return result;
}

}  // namespace rankjoin

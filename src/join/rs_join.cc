#include "join/rs_join.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "join/local_join.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

/// A posting tagged with its side (false = R, true = S).
struct SidedPosting {
  bool from_s = false;
  PrefixPosting posting;
};

/// R x S kernel over one posting group: the group's R and S postings
/// joined as the two sides of NestedLoopJoinRS (in (x, y) buckets when
/// the group is large), so every cross-side pair that survives the
/// key-item position filter, the signature bound and the ownership test
/// (PrefixOwner; both sides were emitted under kOverlap, where the rule
/// needs no prefix length) is verified, and the qualifying ones are
/// emitted as (r_id, s_id), deliberately not normalized by id. Rows of R
/// index `r`, rows of S index `s`.
void RsGroupJoin(const JoinStore& r, const JoinStore& s,
                 const std::vector<SidedPosting>& group, uint32_t raw_theta,
                 bool position_filter, std::vector<ScoredPair>* out,
                 JoinStats* stats) {
  thread_local std::vector<PrefixPosting> r_side;
  thread_local std::vector<PrefixPosting> s_side;
  r_side.clear();
  s_side.clear();
  for (const SidedPosting& p : group) {
    (p.from_s ? s_side : r_side).push_back(p.posting);
  }
  local_join_internal::JoinSides(
      r, r_side, s, s_side, UniformThreshold{raw_theta},
      local_join_internal::KeyRankFilter{position_filter}, r.k(),
      local_join_internal::kMinBucketedGroup,
      [&r, &s, out](const PrefixPosting& a, const PrefixPosting& b,
                    uint32_t d) {
        out->push_back({{r.id(a.row), s.id(b.row)}, d});
      },
      stats);
}

Status ValidateRs(const RankingDataset& r, const RankingDataset& s,
                  const RsJoinOptions& options) {
  if (r.k != s.k) {
    return Status::InvalidArgument("R and S must share the same k");
  }
  if (r.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  RANKJOIN_RETURN_NOT_OK(r.Validate());
  RANKJOIN_RETURN_NOT_OK(s.Validate());
  return Status::OK();
}

}  // namespace

JoinResult BruteForceRsJoin(const RankingDataset& r, const RankingDataset& s,
                            double theta) {
  Stopwatch watch;
  JoinResult result;
  const uint32_t raw_theta = RawThreshold(theta, r.k);
  const ItemOrder identity;
  std::vector<OrderedRanking> ro = MakeOrderedDataset(r.store(), identity);
  std::vector<OrderedRanking> so = MakeOrderedDataset(s.store(), identity);
  for (const OrderedRanking& a : ro) {
    for (const OrderedRanking& b : so) {
      ++result.stats.candidates;
      ++result.stats.verified;
      if (FootruleDistanceBounded(a, b, raw_theta)) {
        ++result.stats.verify_passed;
        result.pairs.push_back({a.id, b.id});
      }
    }
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = watch.ElapsedSeconds();
  return result;
}

static Result<JoinResult> RunRsJoinImpl(minispark::Context* ctx,
                                        const RankingDataset& r,
                                        const RankingDataset& s,
                                        const RsJoinOptions& options);

Result<JoinResult> RunRsJoin(minispark::Context* ctx,
                             const RankingDataset& r, const RankingDataset& s,
                             const RsJoinOptions& options) {
  // A failed stage or a Cancel()/deadline stop anywhere inside unwinds
  // here as a Status.
  return minispark::CatchJobFailure(
      [&] { return RunRsJoinImpl(ctx, r, s, options); });
}

static Result<JoinResult> RunRsJoinImpl(minispark::Context* ctx,
                                        const RankingDataset& r,
                                        const RankingDataset& s,
                                        const RsJoinOptions& options) {
  RANKJOIN_RETURN_NOT_OK(ValidateRs(r, s, options));
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  const int k = r.k;
  const uint32_t raw_theta = RawThreshold(options.theta, k);

  Stopwatch total;
  JoinResult result;

  // Ordering phase: item frequencies over R union S, one canonical
  // order for both sides.
  Stopwatch phase;
  ItemOrder order;
  if (options.reorder_by_frequency) {
    order = ItemOrder::FromFrequencies(MergeItemCounts(
        {CountItemFrequencies(r.store()), CountItemFrequencies(s.store())}));
  }
  const JoinStore ro = JoinStore::Build(r.store(), order);
  const JoinStore so = JoinStore::Build(s.store(), order);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  phase.Reset();
  // Both sides emit prefix postings tagged with their origin, from one
  // pass over the unit indices 0 .. |R| + |S| - 1: unit u < |R| is row u
  // of R, and every later unit a row of S.
  RANKJOIN_CHECK(ro.size() + so.size() <= UINT32_MAX);
  std::vector<uint32_t> units(ro.size() + so.size());
  std::iota(units.begin(), units.end(), 0u);
  auto postings =
      minispark::Parallelize(ctx, std::move(units), num_partitions)
          .FlatMap(
              [&ro, &so, raw_theta](uint32_t unit) {
                const bool from_s = unit >= ro.size();
                const JoinStore& side = from_s ? so : ro;
                const RowIndex row =
                    from_s ? unit - static_cast<uint32_t>(ro.size()) : unit;
                std::vector<std::pair<ItemId, SidedPosting>> out;
                for (const auto& [item, posting] :
                     EmitPrefix(side, row, raw_theta, PrefixMode::kOverlap)) {
                  out.push_back({item, SidedPosting{from_s, posting}});
                }
                return out;
              },
              "rsJoin/prefix");
  auto groups =
      minispark::GroupByKey(postings, num_partitions, "rsJoin/group");

  const bool position_filter = options.position_filter;
  std::vector<JoinStats> slots(static_cast<size_t>(groups.num_partitions()));
  auto pairs = groups.MapPartitionsWithIndex(
      [&ro, &so, raw_theta, position_filter, &slots](
          int index,
          const std::vector<std::pair<ItemId, std::vector<SidedPosting>>>&
              part) {
        std::vector<ScoredPair> out;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& group : part) {
          RsGroupJoin(ro, so, group.second, raw_theta, position_filter, &out,
                      &local);
        }
        return out;
      },
      "rsJoin/localJoin");
  // Groups emit only the pairs they own, so each pair arrives once.
  // Collect runs the fused group+localJoin chain before the stat slots
  // are read.
  std::vector<ScoredPair> collected = pairs.Collect();
  for (const JoinStats& stats : slots) result.stats.MergeCounters(stats);
  result.stats.joining_seconds = phase.ElapsedSeconds();

  result.pairs.reserve(collected.size());
  for (const ScoredPair& sp : collected) result.pairs.push_back(sp.first);
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace rankjoin

#include "join/rs_join.h"

#include <algorithm>
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

/// R x S kernel over one posting group: every cross-side pair that
/// survives the key-item position filter and the signature bound is
/// verified, and a qualifying pair is emitted when the group owns it
/// (PrefixOwner; both sides were emitted under kOverlap, where the rule
/// needs no prefix length). Rows of R index `r`, rows of S index `s`.
void RsGroupJoin(const JoinStore& r, const JoinStore& s,
                 const std::vector<SidedPosting>& group, uint32_t raw_theta,
                 bool position_filter, std::vector<ScoredPair>* out,
                 JoinStats* stats) {
  const PairKernel& kernel = r.kernel();
  const SignatureBound bound = kernel.signature_bound();
  for (const SidedPosting& a : group) {
    if (a.from_s) continue;
    const PrefixOwner owner(r, a.posting, r.k());
    for (const SidedPosting& b : group) {
      if (!b.from_s) continue;
      ++stats->candidates;
      if (position_filter &&
          !PositionFilterPasses(a.posting.key_rank, b.posting.key_rank,
                                raw_theta)) {
        ++stats->position_filtered;
        continue;
      }
      if (bound(r.signature(a.posting.row), s.signature(b.posting.row)) >
          raw_theta) {
        ++stats->signature_filtered;
        continue;
      }
      ++stats->verified;
      const ItemId* b_items = s.items(b.posting.row);
      const uint32_t d = kernel.Distance(r.items(a.posting.row), b_items);
      if (d > raw_theta) continue;
      ++stats->verify_passed;
      if (owner.Repeats(b_items)) {
        ++stats->repeat_pairs;
      } else {
        // (r_id, s_id) — deliberately NOT normalized by id.
        out->push_back({{r.id(a.posting.row), s.id(b.posting.row)}, d});
      }
    }
  }
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
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware(
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
  // Both sides emit prefix postings tagged with their origin.
  auto emit_side = [&](const JoinStore& side, bool from_s) {
    auto ds = minispark::Parallelize(ctx, side.Rows(), num_partitions);
    const JoinStore* side_ptr = &side;
    return ds.FlatMap(
        [side_ptr, raw_theta, from_s](RowIndex row) {
          std::vector<std::pair<ItemId, SidedPosting>> out;
          for (const auto& [item, posting] :
               EmitPrefix(*side_ptr, row, raw_theta, PrefixMode::kOverlap)) {
            out.push_back({item, SidedPosting{from_s, posting}});
          }
          return out;
        },
        from_s ? "rsJoin/prefixS" : "rsJoin/prefixR");
  };
  auto postings =
      minispark::Union(emit_side(ro, false), emit_side(so, true),
                       "rsJoin/unionSides");
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

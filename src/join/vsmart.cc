#include "join/vsmart.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "minispark/dataset.h"
#include "ranking/flat_rankings.h"
#include "ranking/footrule.h"

namespace rankjoin {
namespace {

/// Partial similarity contribution of one common item (see vsmart.h).
constexpr uint32_t Phi(int k, int rank_a, int rank_b) {
  const int diff = rank_a > rank_b ? rank_a - rank_b : rank_b - rank_a;
  return static_cast<uint32_t>((k - rank_a) + (k - rank_b) - diff);
}

}  // namespace

static Result<JoinResult> RunVSmartJoinImpl(minispark::Context* ctx,
                                            const RankingDataset& dataset,
                                            const VSmartOptions& options);

Result<JoinResult> RunVSmartJoin(minispark::Context* ctx,
                                 const RankingDataset& dataset,
                                 const VSmartOptions& options) {
  // A failed stage or a Cancel()/deadline stop anywhere inside unwinds
  // here as a Status.
  return minispark::CatchJobFailure(
      [&] { return RunVSmartJoinImpl(ctx, dataset, options); });
}

static Result<JoinResult> RunVSmartJoinImpl(minispark::Context* ctx,
                                            const RankingDataset& dataset,
                                            const VSmartOptions& options) {
  if (dataset.k < 1) {
    return Status::InvalidArgument("dataset k must be >= 1");
  }
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  const int k = dataset.k;
  const uint32_t raw_theta = RawThreshold(options.theta, k);
  // Qualification: sum of partials >= k(k+1) - raw_theta.
  const uint32_t required = MaxFootrule(k) - raw_theta;

  Stopwatch total;
  JoinResult result;

  // Joining phase: full inverted index (item -> (id, rank) records),
  // emitted from zero-copy views of the columnar store.
  using Posting = std::pair<ItemId, std::pair<RankingId, uint16_t>>;
  minispark::Dataset<RankingView> rankings =
      minispark::Parallelize(ctx, dataset.store().Views(), num_partitions);
  minispark::Dataset<Posting> postings = rankings.FlatMap(
      [](const RankingView& v) {
        std::vector<Posting> out;
        out.reserve(v.k);
        for (uint32_t rank = 0; rank < v.k; ++rank) {
          out.push_back({v.items[rank], {v.id, static_cast<uint16_t>(rank)}});
        }
        return out;
      },
      "vsmart/invertedIndex");
  auto lists =
      minispark::GroupByKey(postings, num_partitions, "vsmart/group");

  // Similarity phase, step 1: emit a partial phi for EVERY pair of
  // rankings sharing the item — the quadratic emission that [10] found
  // to dominate V-SMART's cost.
  std::vector<JoinStats> slots(static_cast<size_t>(lists.num_partitions()));
  auto partials = lists.MapPartitionsWithIndex(
      [k, &slots](
          int index,
          const std::vector<std::pair<
              ItemId, std::vector<std::pair<RankingId, uint16_t>>>>& part) {
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        std::vector<std::pair<ResultPair, uint32_t>> out;
        for (const auto& [item, postings_list] : part) {
          for (size_t i = 0; i + 1 < postings_list.size(); ++i) {
            for (size_t j = i + 1; j < postings_list.size(); ++j) {
              ++local.candidates;
              out.push_back({MakeResultPair(postings_list[i].first,
                                            postings_list[j].first),
                             Phi(k, postings_list[i].second,
                                 postings_list[j].second)});
            }
          }
        }
        return out;
      },
      "vsmart/emitPartials");
  // Force the partial-emission stage before reading the stat slots.
  partials.Force();
  for (const JoinStats& s : slots) result.stats.MergeCounters(s);

  // Similarity phase, step 2: aggregate partials per pair and keep
  // qualifying pairs — no verification needed, the sum is exact.
  auto sums = minispark::ReduceByKey(
      partials, [](uint32_t a, uint32_t b) { return a + b; },
      num_partitions, "vsmart/aggregate");
  auto qualifying = sums.Filter(
      [required](const std::pair<ResultPair, uint32_t>& pair_sum) {
        return pair_sum.second >= required;
      },
      "vsmart/threshold");

  for (const auto& [pair, sum] : qualifying.Collect()) {
    result.pairs.push_back(pair);
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.joining_seconds = total.ElapsedSeconds();
  result.stats.total_seconds = result.stats.joining_seconds;
  return result;
}

}  // namespace rankjoin

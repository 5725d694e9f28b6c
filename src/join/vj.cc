#include "join/vj.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "join/local_join.h"
#include "join/repartition.h"
#include "minispark/dataset.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace internal {

Status ValidateVjOptions(const VjOptions& options, int k) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument(
        "theta must be in [0, 1); prefix filtering requires that disjoint "
        "rankings cannot qualify");
  }
  if (options.prefix_mode == PrefixMode::kOrdered) {
    if (options.reorder_by_frequency) {
      return Status::InvalidArgument(
          "the ordered prefix (Lemma 4.1) uses the original rank order and "
          "cannot be combined with frequency reordering");
    }
    if (!OrderedPrefixApplicable(RawThreshold(options.theta, k), k)) {
      return Status::InvalidArgument(
          "ordered prefix requires raw_theta < k^2/2 (paper footnote 3)");
    }
  }
  return Status::OK();
}

JoinStore OrderDataset(minispark::Context* ctx, const RankingDataset& dataset,
                       bool reorder_by_frequency, int num_partitions,
                       Distance distance) {
  // The tasks read the columnar store's item column where it lies, which
  // outlives the stages here because the caller holds the dataset across
  // the join. Each partition is one range of rows, [first, second), split
  // the way Parallelize splits the rows themselves.
  const FlatRankings& flat = dataset.store();
  const int k = flat.k();
  if (num_partitions <= 0) num_partitions = ctx->default_partitions();
  const size_t parts = static_cast<size_t>(num_partitions);
  const size_t per = (flat.size() + parts - 1) / parts;
  std::vector<std::pair<size_t, size_t>> ranges(parts);
  for (size_t p = 0; p < parts; ++p) {
    ranges[p] = {std::min(flat.size(), p * per),
                 std::min(flat.size(), (p + 1) * per)};
  }
  minispark::Dataset<std::pair<size_t, size_t>> rows =
      minispark::Parallelize(ctx, std::move(ranges), num_partitions);
  const ItemId* items = flat.items();
  const auto column = [items, k](const std::pair<size_t, size_t>& range) {
    return items + range.first * static_cast<size_t>(k);
  };

  ItemOrder order;  // identity (by item id) unless reordering is on
  if (reorder_by_frequency) {
    // Each task counts its rows into one flat table; the driver sums the
    // tables.
    minispark::Dataset<ItemCounts> counts = rows.MapPartitionsWithIndex(
        [column, k](int /*index*/,
                    const std::vector<std::pair<size_t, size_t>>& part) {
          std::vector<ItemCounts> out;
          for (const auto& range : part) {
            out.push_back(CountItems(
                column(range),
                (range.second - range.first) * static_cast<size_t>(k)));
          }
          return out;
        },
        "vj/itemFrequency");
    order = ItemOrder::FromFrequencies(MergeItemCounts(counts.Collect()));
  }

  minispark::Broadcast<ItemOrder> order_bc =
      ctx->MakeBroadcast(std::move(order), "vj/itemOrder");
  // One block of canonical ranks and signatures per partition; the
  // driver concatenates the blocks into the store.
  minispark::Dataset<StoreBlock> blocks = rows.MapPartitionsWithIndex(
      [column, k, order_bc](
          int /*index*/, const std::vector<std::pair<size_t, size_t>>& part) {
        std::vector<StoreBlock> out;
        for (const auto& range : part) {
          out.push_back(JoinStore::BuildBlock(
              column(range), range.second - range.first, k, *order_bc));
        }
        return out;
      },
      "vj/canonicalize");
  std::vector<const StoreBlock*> in_order;
  for (const std::vector<StoreBlock>& part : blocks.partitions()) {
    for (const StoreBlock& block : part) in_order.push_back(&block);
  }
  return JoinStore::FromBlocks(flat, in_order, distance);
}

std::vector<ScoredPair> DistributedSelfJoin(minispark::Context* ctx,
                                            const JoinStore& store,
                                            const SelfJoinSpec& spec,
                                            JoinStats* stats) {
  minispark::Dataset<RowIndex> rankings =
      minispark::Parallelize(ctx, store.Rows(), spec.num_partitions);
  const JoinStore* store_ptr = &store;
  auto postings = rankings.FlatMap(
      [store_ptr, raw_theta = spec.raw_theta,
       mode = spec.prefix_mode](RowIndex row) {
        return EmitPrefix(*store_ptr, row, raw_theta, mode);
      },
      "selfJoin/prefix");
  minispark::Dataset<PostingGroup> groups = minispark::GroupByKey(
      postings, spec.num_partitions, "selfJoin/groupByItem");

  LocalJoinOptions local_options;
  local_options.store = &store;
  local_options.raw_theta = spec.raw_theta;
  local_options.prefix_mode = spec.prefix_mode;
  local_options.position_filter = spec.position_filter;

  LocalJoinFn local_join;
  if (spec.local_algorithm == LocalAlgorithm::kPrefixIndex) {
    local_join = [local_options](const std::vector<PrefixPosting>& group,
                                 std::vector<ScoredPair>* out,
                                 JoinStats* s) {
      LocalPrefixJoin(group, local_options, out, s);
    };
  } else {
    local_join = [local_options](const std::vector<PrefixPosting>& group,
                                 std::vector<ScoredPair>* out,
                                 JoinStats* s) {
      LocalNestedLoopJoin(group, local_options, out, s);
    };
  }
  LocalRsJoinFn rs_join = [local_options](
                              const std::vector<PrefixPosting>& left,
                              const std::vector<PrefixPosting>& right,
                              std::vector<ScoredPair>* out, JoinStats* s) {
    LocalNestedLoopJoinRS(left, right, local_options, out, s);
  };

  // Phase-local stats: the local joins accumulate into per-partition
  // slots inside JoinGroupsWithRepartitioning; collecting them into a
  // fresh JoinStats (merged into the caller's afterwards) lets this
  // phase publish ITS filter-effectiveness counters under its own
  // scope, no matter who embeds the self-join (VJ driver, CL
  // clustering).
  JoinStats phase_stats;
  // Every group emits only the pairs it owns (PrefixOwner), so each
  // qualifying pair arrives once.
  std::vector<ScoredPair> collected = JoinGroupsWithRepartitioning(
      groups, spec.repartition_delta, spec.num_partitions, local_join,
      rs_join, &phase_stats, spec.adaptive_repartition);
  phase_stats.PublishCounters(&ctx->counters(), spec.counter_scope);
  ctx->counters().Add(spec.counter_scope + ".pairs", collected.size());
  stats->MergeCounters(phase_stats);
  return collected;
}

}  // namespace internal

static Result<JoinResult> RunVjJoinImpl(minispark::Context* ctx,
                                        const RankingDataset& dataset,
                                        const VjOptions& options);

Result<JoinResult> RunVjJoin(minispark::Context* ctx,
                             const RankingDataset& dataset,
                             const VjOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware(
      [&] { return RunVjJoinImpl(ctx, dataset, options); });
}

static Result<JoinResult> RunVjJoinImpl(minispark::Context* ctx,
                                        const RankingDataset& dataset,
                                        const VjOptions& options) {
  RANKJOIN_RETURN_NOT_OK(internal::ValidateVjOptions(options, dataset.k));
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();

  Stopwatch total;
  JoinResult result;

  Stopwatch phase;
  const JoinStore store = internal::OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  phase.Reset();
  internal::SelfJoinSpec spec;
  spec.raw_theta = RawThreshold(options.theta, dataset.k);
  spec.k = dataset.k;
  spec.num_partitions = num_partitions;
  spec.position_filter = options.position_filter;
  spec.prefix_mode = options.prefix_mode;
  spec.local_algorithm = options.local_algorithm;
  spec.repartition_delta = options.repartition_delta;
  spec.adaptive_repartition = options.adaptive_repartition;
  spec.counter_scope = options.counter_scope;
  std::vector<ScoredPair> scored =
      internal::DistributedSelfJoin(ctx, store, spec, &result.stats);
  result.stats.joining_seconds = phase.ElapsedSeconds();

  result.pairs.reserve(scored.size());
  for (const ScoredPair& sp : scored) result.pairs.push_back(sp.first);
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  ctx->counters().Add(options.counter_scope + ".result_pairs",
                      result.stats.result_pairs);
  return result;
}

}  // namespace rankjoin

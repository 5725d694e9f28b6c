#include "jaccard/jaccard_join.h"

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "jaccard/jaccard.h"
#include "join/cluster_join.h"
#include "join/vj.h"
#include "minispark/dataset.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

/// The raw Jaccard threshold: sets within Jaccard distance theta share at
/// least o = JaccardMinOverlap(theta, k) items, which is exactly
/// |A xor B| = 2(k - overlap) <= 2(k - o), the distance of a
/// Distance::kJaccard store. Negative when nothing qualifies.
int64_t RawJaccardThreshold(double theta, int k) {
  return 2 * (int64_t{k} - JaccardMinOverlap(theta, k));
}

Status ValidateOptions(const JaccardJoinOptions& options, int k,
                       bool clustering) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (std::isnan(options.theta_c)) {
    return Status::InvalidArgument("theta_c must be a number");
  }
  int64_t enlarged = RawJaccardThreshold(options.theta, k);
  if (clustering) {
    if (!(options.theta_c >= 0.0 && options.theta_c <= options.theta)) {
      return Status::InvalidArgument("theta_c must be in [0, theta]");
    }
    if (options.theta + 2 * options.theta_c >= 1.0) {
      return Status::InvalidArgument(
          "theta + 2*theta_c must stay below 1 (the disjoint-set "
          "distance)");
    }
    enlarged += 2 * RawJaccardThreshold(options.theta_c, k);
  }
  // theta + 2*theta_c < 1 implies this, because the Jaccard distance
  // 2m / (k + m) of sets missing m items of each other is concave in m
  // and so subadditive; the check covers thresholds within the
  // rounding slack of JaccardQualifies below 1.
  if (enlarged >= 2 * int64_t{k}) {
    return Status::InvalidArgument(
        "the threshold lets disjoint sets qualify; prefix filtering "
        "would be incomplete");
  }
  return Status::OK();
}

/// Validates, orders `dataset` into a Distance::kJaccard store and runs
/// `phases(store, num_partitions, &result)` on it, with the ordering and
/// total times recorded. A failed stage or a Cancel()/deadline stop
/// anywhere inside unwinds here as a Status.
template <typename Phases>
Result<JoinResult> RunOnJaccardStore(minispark::Context* ctx,
                                     const RankingDataset& dataset,
                                     const JaccardJoinOptions& options,
                                     bool clustering, Phases&& phases) {
  RANKJOIN_RETURN_NOT_OK(ValidateOptions(options, dataset.k, clustering));
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  return minispark::CatchJobFailure([&]() -> Result<JoinResult> {
    const int num_partitions = options.num_partitions > 0
                                   ? options.num_partitions
                                   : ctx->default_partitions();
    Stopwatch total;
    JoinResult result;
    const JoinStore store =
        internal::OrderDataset(ctx, dataset, options.reorder_by_frequency,
                               num_partitions, Distance::kJaccard);
    result.stats.ordering_seconds = total.ElapsedSeconds();
    phases(store, num_partitions, &result);
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  });
}

}  // namespace

JoinResult JaccardBruteForceJoin(const RankingDataset& dataset,
                                 double theta) {
  Stopwatch watch;
  JoinResult result;
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(dataset.store(), ItemOrder());
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    for (size_t j = i + 1; j < ordered.size(); ++j) {
      ++result.stats.candidates;
      ++result.stats.verified;
      const int overlap = SetOverlap(ordered[i], ordered[j]);
      if (JaccardQualifies(overlap, dataset.k, theta)) {
        result.pairs.push_back(
            MakeResultPair(ordered[i].id, ordered[j].id));
      }
    }
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = watch.ElapsedSeconds();
  return result;
}

Result<JoinResult> RunJaccardVjJoin(minispark::Context* ctx,
                                    const RankingDataset& dataset,
                                    const JaccardJoinOptions& options) {
  return RunOnJaccardStore(
      ctx, dataset, options, /*clustering=*/false,
      [&](const JoinStore& store, int num_partitions, JoinResult* result) {
        Stopwatch phase;
        internal::SelfJoinSpec spec;
        spec.raw_theta = static_cast<uint32_t>(
            RawJaccardThreshold(options.theta, dataset.k));
        spec.k = dataset.k;
        spec.num_partitions = num_partitions;
        spec.position_filter = false;  // sets have no ranks to compare
        spec.counter_scope = "jaccard";
        for (const ScoredPair& sp : internal::DistributedSelfJoin(
                 ctx, store, spec, &result->stats)) {
          result->pairs.push_back(sp.first);
        }
        result->stats.joining_seconds = phase.ElapsedSeconds();
        result->stats.result_pairs = result->pairs.size();
      });
}

Result<JoinResult> RunJaccardClusterJoin(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         const JaccardJoinOptions& options) {
  return RunOnJaccardStore(
      ctx, dataset, options, /*clustering=*/true,
      [&](const JoinStore& store, int num_partitions, JoinResult* result) {
        ClOptions phases;
        phases.position_filter = false;  // sets have no ranks to compare
        phases.singleton_optimization = options.singleton_optimization;
        phases.triangle_upper_shortcut = options.triangle_upper_shortcut;
        internal::RunClusterPhases(
            ctx, store,
            static_cast<uint32_t>(
                RawJaccardThreshold(options.theta, dataset.k)),
            static_cast<uint32_t>(
                RawJaccardThreshold(options.theta_c, dataset.k)),
            phases, num_partitions, result);
      });
}

}  // namespace rankjoin

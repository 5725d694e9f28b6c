#include "core/similarity_join.h"

#include "join/brute_force.h"
#include "join/vj_nl.h"
#include "join/vsmart.h"
#include "minispark/dataset.h"
#include "plan/planner.h"

namespace rankjoin {

namespace internal {

VjOptions ToVjOptions(const SimilarityJoinConfig& config) {
  VjOptions options;
  options.theta = config.theta;
  options.num_partitions = config.num_partitions;
  options.position_filter = config.position_filter;
  options.reorder_by_frequency = config.reorder_by_frequency;
  options.local_algorithm = config.algorithm == Algorithm::kVJNL
                                ? LocalAlgorithm::kNestedLoop
                                : LocalAlgorithm::kPrefixIndex;
  return options;
}

ClOptions ToClOptions(const SimilarityJoinConfig& config) {
  ClOptions options;
  options.theta = config.theta;
  options.theta_c = config.theta_c;
  options.num_partitions = config.num_partitions;
  options.position_filter = config.position_filter;
  options.reorder_by_frequency = config.reorder_by_frequency;
  options.singleton_optimization = config.singleton_optimization;
  options.triangle_upper_shortcut = config.triangle_upper_shortcut;
  // CL-P splits unconditionally; CL splits only in adaptive mode, where
  // the measured posting lists decide (repartition.h).
  options.repartition_delta =
      config.algorithm == Algorithm::kCLP || config.adaptive_repartition
          ? config.delta
          : 0;
  options.adaptive_repartition = config.adaptive_repartition;
  return options;
}

}  // namespace internal

namespace {

/// Executor half of the planner → executor split: dispatches an already
/// concrete (never kAuto) configuration to its pipeline.
Result<JoinResult> ExecuteJoin(minispark::Context* ctx,
                               const RankingDataset& dataset,
                               const SimilarityJoinConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kBruteForce:
      RANKJOIN_RETURN_NOT_OK(dataset.Validate());
      return BruteForceJoin(dataset, config.theta);

    case Algorithm::kVJ:
    case Algorithm::kVJNL:
      return RunVjJoin(ctx, dataset, internal::ToVjOptions(config));

    case Algorithm::kCL:
    case Algorithm::kCLP:
      return RunClusterJoin(ctx, dataset, internal::ToClOptions(config));

    case Algorithm::kVSmart: {
      VSmartOptions options;
      options.theta = config.theta;
      options.num_partitions = config.num_partitions;
      return RunVSmartJoin(ctx, dataset, options);
    }

    case Algorithm::kAuto:
      break;  // handled by the planner below; unreachable here
  }
  return Status::Internal("unhandled algorithm");
}

/// Planner half: samples the dataset, picks the cheapest strategy, and
/// executes the resulting concrete plan. The decision is attached to the
/// result (plan_json) and to the context (plan annotation rendered as an
/// ExplainDot header comment).
Result<JoinResult> PlanAndExecute(minispark::Context* ctx,
                                  const RankingDataset& dataset,
                                  const SimilarityJoinConfig& config) {
  RANKJOIN_ASSIGN_OR_RETURN(plan::JoinPlan plan,
                            plan::PlanJoin(ctx, dataset, config));
  const SimilarityJoinConfig concrete = plan::ApplyPlan(config, plan);
  RANKJOIN_RETURN_NOT_OK(concrete.Validate(dataset.k));
  ctx->set_plan_annotation(plan.Summary());
  RANKJOIN_ASSIGN_OR_RETURN(JoinResult result,
                            ExecuteJoin(ctx, dataset, concrete));
  result.plan_json = plan.ToJson();
  for (const plan::StrategyCost& strategy : plan.strategies) {
    if (strategy.algorithm == plan.algorithm) {
      result.predicted_cost = strategy.makespan;
    }
  }
  return result;
}

}  // namespace

Result<JoinResult> RunSimilarityJoin(minispark::Context* ctx,
                                     const RankingDataset& dataset,
                                     const SimilarityJoinConfig& config) {
  RANKJOIN_RETURN_NOT_OK(config.Validate(dataset.k));
  // The pipelines each catch a JobFailedError already; wrapping the
  // facade too covers the planner's sampling stages and any future
  // dispatch path.
  return minispark::CatchJobFailure([&]() -> Result<JoinResult> {
    if (config.algorithm == Algorithm::kAuto) {
      return PlanAndExecute(ctx, dataset, config);
    }
    return ExecuteJoin(ctx, dataset, config);
  });
}

}  // namespace rankjoin

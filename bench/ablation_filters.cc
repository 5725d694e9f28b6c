// Ablation: contribution of the individual design choices DESIGN.md
// calls out — the position filter, the triangle-inequality shortcut in
// the expansion, Lemma 5.3's singleton thresholds, frequency reordering,
// and the ordered vs overlap prefix. Each row toggles one choice off
// and reports the simulated makespan plus the verification count.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "join/vj.h"
#include "join/vj_nl.h"
#include "minispark/dataset.h"

namespace rankjoin::bench {
namespace {

struct Variant {
  std::string name;
  std::function<void(SimilarityJoinConfig*)> tweak;
};

void RunAblation(const std::string& dataset, Algorithm algorithm,
                 double theta, const std::vector<Variant>& variants) {
  Table table({"variant", "makespan", "verified", "candidates",
               "pos-filtered", "tri-filtered", "unverified-out"});
  for (const Variant& variant : variants) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = theta;
    config.theta_c = 0.03;
    config.delta = 600;
    variant.tweak(&config);
    RunOptions options;
    options.simulate_workers = {kPaperExecutors};
    RunOutcome outcome = RunOnce(dataset, config, options);
    table.AddRow({variant.name, FormatMakespan(outcome, kPaperExecutors),
                  std::to_string(outcome.stats.verified),
                  std::to_string(outcome.stats.candidates),
                  std::to_string(outcome.stats.position_filtered),
                  std::to_string(outcome.stats.triangle_filtered),
                  std::to_string(outcome.stats.emitted_unverified)});
  }
  table.Print("Ablation — " + std::string(AlgorithmName(algorithm)) +
              " on " + dataset + ", theta=" + std::to_string(theta));
}

// Prefix-mode ablation runs through VjOptions directly (the facade
// always uses the paper's default overlap prefix with reordering).
void RunPrefixModeAblation(const std::string& dataset, double theta) {
  const RankingDataset& data = GetDataset(dataset);
  Table table({"variant", "makespan", "verified", "candidates"});
  struct Row {
    std::string name;
    bool reorder;
    PrefixMode mode;
  };
  for (const Row& row :
       {Row{"overlap prefix + reorder", true, PrefixMode::kOverlap},
        Row{"overlap prefix, no reorder", false, PrefixMode::kOverlap},
        Row{"ordered prefix (Lemma 4.1)", false, PrefixMode::kOrdered}}) {
    minispark::Context ctx({.num_workers = 4, .default_partitions = 64});
    VjOptions options;
    options.theta = theta;
    options.reorder_by_frequency = row.reorder;
    options.prefix_mode = row.mode;
    auto result = RunVjJoin(&ctx, data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    char makespan[32];
    std::snprintf(makespan, sizeof(makespan), "%.3f",
                  ctx.metrics().SimulatedMakespan(kPaperExecutors));
    table.AddRow({row.name, makespan,
                  std::to_string(result->stats.verified),
                  std::to_string(result->stats.candidates)});
  }
  table.Print("Ablation — VJ prefix derivation on " + dataset +
              ", theta=" + std::to_string(theta));
}

}  // namespace
}  // namespace rankjoin::bench

int main(int argc, char** argv) {
  rankjoin::bench::ParseCommonFlags(argc, argv);
  using namespace rankjoin;
  using namespace rankjoin::bench;

  // Position filter matters most at small theta (bound raw_theta/2 must
  // undercut the max rank difference k).
  RunAblation("DBLPx5", Algorithm::kVJNL, 0.1,
              {{"all filters on", [](SimilarityJoinConfig*) {}},
               {"no position filter", [](SimilarityJoinConfig* c) {
                  c->position_filter = false;
                }}});

  RunAblation("DBLPx5", Algorithm::kCL, 0.3,
              {{"all optimizations on", [](SimilarityJoinConfig*) {}},
               {"no triangle shortcut",
                [](SimilarityJoinConfig* c) {
                  c->triangle_upper_shortcut = false;
                }},
               {"no singleton thresholds (Lemma 5.1 only)",
                [](SimilarityJoinConfig* c) {
                  c->singleton_optimization = false;
                }},
               {"no frequency reordering",
                [](SimilarityJoinConfig* c) {
                  c->reorder_by_frequency = false;
                }}});

  RunPrefixModeAblation("DBLP", 0.3);
  return 0;
}

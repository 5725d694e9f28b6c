// Outlook (paper Section 8): the CL framework applied to Jaccard set
// similarity joins — the extension the paper names as future work.
// Compares the plain VJ-style prefix join against the clustering join
// across thresholds, on the DBLPx5 workload interpreted as sets.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "jaccard/jaccard_join.h"
#include "minispark/dataset.h"

int main(int argc, char** argv) {
  rankjoin::bench::ParseCommonFlags(argc, argv);
  using namespace rankjoin;
  using namespace rankjoin::bench;

  const RankingDataset& data = GetDataset("DBLPx5");
  Table table({"theta", "VJ (Jaccard)", "CL (Jaccard)", "pairs",
               "clusters"});
  for (double theta : {0.2, 0.3, 0.4, 0.5}) {
    JaccardJoinOptions options;
    options.theta = theta;
    options.theta_c = 0.05;

    minispark::Context vj_ctx({.num_workers = 4, .default_partitions = 64});
    Stopwatch vj_watch;
    auto vj = RunJaccardVjJoin(&vj_ctx, data, options);
    const double vj_seconds = vj_watch.ElapsedSeconds();
    minispark::Context cl_ctx({.num_workers = 4, .default_partitions = 64});
    Stopwatch cl_watch;
    auto cl = RunJaccardClusterJoin(&cl_ctx, data, options);
    const double cl_seconds = cl_watch.ElapsedSeconds();
    if (!vj.ok() || !cl.ok()) {
      std::fprintf(stderr, "jaccard run failed\n");
      return 1;
    }
    // One RANKJOIN_METRICS_JSON row per join, as RunOnce writes them, so
    // the CI counter gate covers the Jaccard pipelines too.
    if (const std::string path = MetricsJsonPath(); !path.empty()) {
      MetricsRowInfo info;
      info.label = "jaccard-vj/DBLPx5";
      info.wall_seconds = vj_seconds;
      AppendMetricsJson(vj_ctx, info, path);
      info.label = "jaccard-cl/DBLPx5";
      info.wall_seconds = cl_seconds;
      AppendMetricsJson(cl_ctx, info, path);
    }
    CheckAgreement("jaccard theta=" + std::to_string(theta),
                   {vj->pairs.size(), cl->pairs.size()});
    char t[16], v[32], c[32];
    std::snprintf(t, sizeof(t), "%.2f", theta);
    std::snprintf(v, sizeof(v), "%.3f",
                  vj_ctx.metrics().SimulatedMakespan(kPaperExecutors));
    std::snprintf(c, sizeof(c), "%.3f",
                  cl_ctx.metrics().SimulatedMakespan(kPaperExecutors));
    table.AddRow({t, v, c, std::to_string(vj->pairs.size()),
                  std::to_string(cl->stats.clusters)});
  }
  table.Print(
      "Outlook — Jaccard set similarity join on DBLPx5 (as sets): "
      "simulated 24-executor makespan [s]");
  return 0;
}

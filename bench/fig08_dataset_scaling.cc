// Figure 8: CL-P execution time as the DBLP dataset grows (x1, x5, x10)
// for each theta. Expected shape: roughly linear growth for small
// thetas; the steepest jump at theta = 0.4 from x5 to x10 (the paper
// attributes its 7x jump there to a suboptimal delta).
//
// --scale-to N switches to the paper-scale out-of-core mode: a DBLP-like
// dataset is scaled to at least N rankings, written to a binary columnar
// file, mmapped back (so the joins run off the zero-copy store), and
// pushed through VJ and CL under a constrained shuffle budget with
// pipelined stages. One JSON metrics line per algorithm goes to stdout.
//
//   fig08_dataset_scaling --scale-to 1000000 [--theta 0.1]
//                         [--budget-bytes 67108864] [--flat-file PATH]
//                         [--keep-flat-file] [--reuse-flat]
//                         [--pipelined]
//                         [--checkpoint-dir DIR] [--resume]
//                         [--pairs-out PREFIX]
//
// --reuse-flat skips generation when the columnar file already exists
// (implies keeping it), so a measured run contains only map + join —
// the configuration for pipelined A/B timing.
//
// --checkpoint-dir/--resume plumb the durable-execution layer through
// (same as RANKJOIN_CHECKPOINT_DIR / RANKJOIN_RESUME); --pairs-out
// writes each algorithm's result pairs to PREFIX.<algorithm>.txt so the
// crash-resume CI job can byte-diff an interrupted-and-resumed run
// against an uninterrupted one.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/scale.h"

namespace rankjoin::bench {
namespace {

/// One out-of-core run at --scale-to size: mmap-born dataset, shuffle
/// budget, pipelined stages per Config(). Prints a JSON-lines record.
void RunAtScale(const RankingDataset& dataset, Algorithm algorithm,
                double theta, uint64_t budget_bytes,
                const std::string& checkpoint_dir, bool resume,
                const std::string& pairs_out) {
  minispark::Context::Options cluster;
  cluster.num_workers = 4;
  cluster.default_partitions = 64;
  cluster.shuffle_memory_budget_bytes = budget_bytes;
  cluster.pipelined_stages = Config().pipelined;
  if (!checkpoint_dir.empty()) {
    // One subdirectory per algorithm: both runs of this binary get
    // independent manifests (their plans differ, but keeping the
    // stores separate also keeps the epochs independent).
    cluster.checkpoint_dir =
        checkpoint_dir + "/" + AlgorithmName(algorithm);
    cluster.resume = resume;
  }
  minispark::Context ctx(cluster);

  SimilarityJoinConfig config;
  config.algorithm = algorithm;
  config.theta = theta;
  config.theta_c = 0.03;
  config.delta = algorithm == Algorithm::kCLP ? 900 : 0;

  Stopwatch watch;
  auto result = RunSimilarityJoin(&ctx, dataset, config);
  const double seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "scale-to run failed (%s): %s\n",
                 AlgorithmName(algorithm),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  const minispark::Histogram tasks = ctx.metrics().TaskDurationHistogram();
  JsonRow row;
  row.Str("mode", "scale-to")
      .Str("algorithm", AlgorithmName(algorithm))
      .Int("rankings", dataset.size())
      .Int("k", static_cast<uint64_t>(dataset.k))
      .Num("theta", theta)
      .Bool("pipelined", Config().pipelined)
      .Int("shuffle_budget_bytes", budget_bytes)
      .Num("seconds", seconds)
      .Int("pairs", result->pairs.size())
      .Int("spilled_bytes", ctx.metrics().TotalSpilledBytes())
      .Int("spilled_runs", ctx.metrics().TotalSpilledRuns())
      .Int("max_rss_kb", MaxRssKb());
  if (tasks.Count() > 0) {
    row.Num("task_us_p50", tasks.Quantile(0.50))
        .Num("task_us_p99", tasks.Quantile(0.99));
  }
  std::printf("%s\n", row.Finish().c_str());
  std::fflush(stdout);
  if (const std::string path = MetricsJsonPath(); !path.empty()) {
    MetricsRowInfo info;
    info.label = std::string("scale-to/") + AlgorithmName(algorithm);
    info.wall_seconds = seconds;
    AppendMetricsJson(ctx, info, path);
  }
  if (!pairs_out.empty()) {
    const std::string path =
        pairs_out + "." + AlgorithmName(algorithm) + ".txt";
    if (Status s = WriteResultPairs(path, result->pairs); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
}

int ScaleToMain(uint64_t scale_to, double theta, uint64_t budget_bytes,
                std::string flat_file, bool keep_flat_file, bool reuse_flat,
                const std::string& checkpoint_dir, bool resume,
                const std::string& pairs_out) {
  // Build the scaled dataset once, spill it to the columnar file, and
  // drop the in-memory copy — the joins then run off the mmap, which is
  // the representation a paper-scale out-of-core run would use.
  //
  // The base workload grows with the target (vocabulary scales with the
  // ranking count, like the real DBLP token universe — a fixed 2k-item
  // domain at 1M rankings would make every posting list ~500x longer
  // than the paper's), and the final x10 uses the paper's perturbed-copy
  // scaling so the near-duplicate structure of DBLPx10 is preserved.
  GeneratorOptions base = DblpLikeOptions();
  const int factor = 10;
  base.num_rankings =
      (scale_to + static_cast<uint64_t>(factor) - 1) / factor;
  base.domain_size = std::max(
      base.domain_size, static_cast<uint32_t>(base.num_rankings / 2));
  if (flat_file.empty()) {
    flat_file = "fig08_scale_to.rkjc";
  }
  if (reuse_flat) {
    if (std::FILE* f = std::fopen(flat_file.c_str(), "rb")) {
      std::fclose(f);
      keep_flat_file = true;
    } else {
      std::fprintf(stderr, "--reuse-flat: %s does not exist\n",
                   flat_file.c_str());
      return 1;
    }
  } else {
    RankingDataset dataset = GenerateDataset(base);
    dataset = ScaleDataset(dataset, factor, base.domain_size);
    std::printf("# scale-to: %zu rankings (base %zu x%d), writing %s\n",
                dataset.size(), base.num_rankings, factor,
                flat_file.c_str());
    std::fflush(stdout);
    if (Status s = WriteFlatRankings(flat_file, dataset); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  auto mapped = MapFlatRankings(flat_file);
  if (!mapped.ok()) {
    std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
    return 1;
  }
  RunAtScale(*mapped, Algorithm::kVJ, theta, budget_bytes, checkpoint_dir,
             resume, pairs_out);
  RunAtScale(*mapped, Algorithm::kCL, theta, budget_bytes, checkpoint_dir,
             resume, pairs_out);
  if (!keep_flat_file) std::remove(flat_file.c_str());
  return 0;
}

}  // namespace
}  // namespace rankjoin::bench

int main(int argc, char** argv) {
  using namespace rankjoin;
  using namespace rankjoin::bench;

  const std::vector<int> rest = ParseCommonFlags(argc, argv);
  uint64_t scale_to = 0;
  double theta = 0.1;
  uint64_t budget_bytes = 64ull << 20;
  std::string flat_file;
  bool keep_flat_file = false;
  bool reuse_flat = false;
  std::string checkpoint_dir;
  bool resume = false;
  std::string pairs_out;
  for (size_t r = 0; r < rest.size(); ++r) {
    const int i = rest[r];
    auto next = [&](const char* flag) -> const char* {
      if (r + 1 >= rest.size() || rest[r + 1] != i + 1) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      ++r;
      return argv[i + 1];
    };
    if (!std::strcmp(argv[i], "--scale-to")) {
      scale_to = std::strtoull(next("--scale-to"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--theta")) {
      theta = std::atof(next("--theta"));
    } else if (!std::strcmp(argv[i], "--budget-bytes")) {
      budget_bytes = std::strtoull(next("--budget-bytes"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--flat-file")) {
      flat_file = next("--flat-file");
    } else if (!std::strcmp(argv[i], "--keep-flat-file")) {
      keep_flat_file = true;
    } else if (!std::strcmp(argv[i], "--reuse-flat")) {
      reuse_flat = true;
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      checkpoint_dir = next("--checkpoint-dir");
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume = true;
    } else if (!std::strcmp(argv[i], "--pairs-out")) {
      pairs_out = next("--pairs-out");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (scale_to > 0) {
    return ScaleToMain(scale_to, theta, budget_bytes, flat_file,
                       keep_flat_file, reuse_flat, checkpoint_dir, resume,
                       pairs_out);
  }

  const std::vector<std::string> datasets = {"DBLP", "DBLPx5", "DBLPx10"};
  Table table({"theta", "x1", "x5", "x10", "pairs x1", "pairs x5",
               "pairs x10"});
  for (double theta_fig : {0.1, 0.2, 0.3, 0.4}) {
    std::vector<std::string> row;
    char t[16];
    std::snprintf(t, sizeof(t), "%.2f", theta_fig);
    row.push_back(t);
    std::vector<std::string> pair_cells;
    for (const std::string& dataset : datasets) {
      SimilarityJoinConfig config;
      config.algorithm = Algorithm::kCLP;
      config.theta = theta_fig;
      config.theta_c = 0.03;
      config.delta = dataset == "DBLP" ? 300 : dataset == "DBLPx5" ? 600 : 900;
      RunOptions options;
      options.simulate_workers = {kPaperExecutors};
      RunOutcome outcome = RunOnce(dataset, config, options);
      row.push_back(FormatMakespan(outcome, kPaperExecutors));
      pair_cells.push_back(std::to_string(outcome.pairs));
    }
    row.insert(row.end(), pair_cells.begin(), pair_cells.end());
    table.AddRow(row);
  }
  table.Print(
      "Figure 8 — CL-P simulated 24-executor makespan [s] vs DBLP dataset "
      "increase");
  return 0;
}

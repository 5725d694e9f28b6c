// Command-line join driver: runs any of the algorithms over a text
// dataset file and writes the result pairs.
//
//   rankjoin_cli --input data.txt --k 10 --theta 0.3
//                [--algorithm vj|vj-nl|cl|cl-p|brute-force|auto]
//                [--theta-c 0.03] [--delta 500] [--partitions 64]
//                [--workers 4] [--output pairs.txt] [--stats]
//                [--metrics] [--trace-out trace.json] [--lint]
//                [--stats-port N] [--mmap FILE]
//                [--pipelined]
//
// Input format: one ranking per line, "id: i0 i1 ... ik-1" (see
// data/io.h), or a binary columnar file via --mmap (zero-copy load;
// --k is inferred from the file header). Output: "id1 id2" lines
// sorted by pair.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/similarity_join.h"
#include "data/io.h"
#include "minispark/dataset.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --input FILE --k K --theta T [options]\n"
      "  --algorithm NAME   vj | vj-nl | cl | cl-p | brute-force | auto "
      "(default cl-p);\n"
      "                     auto samples the dataset and executes the\n"
      "                     cheapest of vj/cl/cl-p (prints the plan)\n"
      "  --theta-c T        clustering threshold (default 0.03)\n"
      "  --delta N          CL-P partitioning threshold (default 500);\n"
      "                     0 with --algorithm auto lets the planner pick\n"
      "                     a measured delta\n"
      "  --partitions N     shuffle partitions (default 64)\n"
      "  --workers N        worker threads (default 4)\n"
      "  --output FILE      write result pairs (default: count only)\n"
      "  --stats            print work statistics\n"
      "  --metrics          print engine stage/operator metrics and the\n"
      "                     filter-effectiveness counters (needs\n"
      "                     RANKJOIN_TRACE_LEVEL=counters or timers)\n"
      "  --trace-out FILE   write a Chrome-trace JSON of the run; an\n"
      "                     unwritable path warns and continues (counter\n"
      "                     obs.sink.degraded)\n"
      "  --stats-port N     serve live /metrics (Prometheus) and /healthz\n"
      "                     on 127.0.0.1:N while the join runs (0 picks an\n"
      "                     ephemeral port; same as RANKJOIN_STATS_PORT)\n"
      "  --lint             lint every plan the run collects (MS002..MS005,\n"
      "                     see docs/MINISPARK.md) and print the report;\n"
      "                     RANKJOIN_LINT_LEVEL=error additionally rejects\n"
      "                     a bad plan before its pending chain runs\n"
      "  --mmap FILE        load a binary columnar dataset (data/io.h\n"
      "                     RKJC format) by mmap instead of --input\n"
      "  --pipelined        overlap shuffle write/read stages (same as\n"
      "                     RANKJOIN_PIPELINED_STAGES=1)\n"
      "  --checkpoint-dir D persist durable stage checkpoints under D\n"
      "                     (same as RANKJOIN_CHECKPOINT_DIR)\n"
      "  --resume           resume from the checkpoints in\n"
      "                     --checkpoint-dir: stages whose saved results\n"
      "                     verify are skipped (same as RANKJOIN_RESUME=1)\n"
      "  --deadline-ms N    fail the job with DeadlineExceeded after N ms\n"
      "                     (same as RANKJOIN_JOB_DEADLINE_MS)\n",
      argv0);
}

/// Reads the value of a numeric flag strictly: the whole string must be
/// a finite number in [lo, hi], and a whole one for an `integer` flag.
/// Anything else exits 2 with a message that names the flag.
double ParseNumber(const char* flag, const char* text, double lo, double hi,
                   bool integer) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  const bool ok = end != text && *end == '\0' &&
                  !std::isspace(static_cast<unsigned char>(text[0])) &&
                  errno == 0 && value >= lo && value <= hi &&
                  (!integer || value == std::floor(value));
  if (!ok) {
    std::fprintf(stderr, "%s: '%s' is not %s in [%.17g, %.17g]\n", flag,
                 text, integer ? "an integer" : "a number", lo, hi);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rankjoin;

  std::string input;
  std::string output;
  std::string algorithm = "cl-p";
  int k = 0;
  double theta = -1;
  double theta_c = 0.03;
  uint64_t delta = 500;
  int partitions = 64;
  int workers = 4;
  bool print_stats = false;
  bool print_metrics = false;
  bool lint = false;
  bool pipelined = false;
  bool resume = false;
  std::string checkpoint_dir;
  long long deadline_ms = 0;
  int stats_port = -1;
  std::string trace_out;
  std::string mmap_path;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--input")) {
      input = next("--input");
    } else if (!std::strcmp(argv[i], "--output")) {
      output = next("--output");
    } else if (!std::strcmp(argv[i], "--algorithm")) {
      algorithm = next("--algorithm");
    } else if (!std::strcmp(argv[i], "--k")) {
      k = static_cast<int>(ParseNumber("--k", next("--k"), 1, 65535, true));
    } else if (!std::strcmp(argv[i], "--theta")) {
      theta = ParseNumber("--theta", next("--theta"), 0, 1, false);
    } else if (!std::strcmp(argv[i], "--theta-c")) {
      theta_c = ParseNumber("--theta-c", next("--theta-c"), 0, 1, false);
    } else if (!std::strcmp(argv[i], "--delta")) {
      delta = static_cast<uint64_t>(
          ParseNumber("--delta", next("--delta"), 0, 1e15, true));
    } else if (!std::strcmp(argv[i], "--partitions")) {
      partitions = static_cast<int>(
          ParseNumber("--partitions", next("--partitions"), 1, 1 << 20, true));
    } else if (!std::strcmp(argv[i], "--workers")) {
      workers = static_cast<int>(
          ParseNumber("--workers", next("--workers"), 1, 1024, true));
    } else if (!std::strcmp(argv[i], "--stats")) {
      print_stats = true;
    } else if (!std::strcmp(argv[i], "--metrics")) {
      print_metrics = true;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out = next("--trace-out");
    } else if (!std::strcmp(argv[i], "--stats-port")) {
      stats_port = static_cast<int>(
          ParseNumber("--stats-port", next("--stats-port"), 0, 65535, true));
    } else if (!std::strcmp(argv[i], "--lint")) {
      lint = true;
    } else if (!std::strcmp(argv[i], "--mmap")) {
      mmap_path = next("--mmap");
    } else if (!std::strcmp(argv[i], "--pipelined")) {
      pipelined = true;
    } else if (!std::strcmp(argv[i], "--checkpoint-dir")) {
      checkpoint_dir = next("--checkpoint-dir");
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume = true;
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      deadline_ms = static_cast<long long>(
          ParseNumber("--deadline-ms", next("--deadline-ms"), 0, 1e15, true));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }
  if ((input.empty() == mmap_path.empty()) ||
      (mmap_path.empty() && k <= 0) || theta < 0) {
    Usage(argv[0]);
    return 2;
  }

  auto parsed = ParseAlgorithm(algorithm);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  auto dataset = mmap_path.empty() ? ReadRankings(input, k)
                                   : MapFlatRankings(mmap_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  minispark::Context::Options cluster;
  cluster.num_workers = workers;
  cluster.default_partitions = partitions;
  // --lint turns on Collect()-time linting (at least warn level); the
  // RANKJOIN_LINT_LEVEL env override still wins inside Context, so
  // `--lint` + `RANKJOIN_LINT_LEVEL=error` rejects bad plans outright.
  if (lint && cluster.lint_level == minispark::LintLevel::kOff) {
    cluster.lint_level = minispark::LintLevel::kWarn;
  }
  if (pipelined) cluster.pipelined_stages = true;
  if (!checkpoint_dir.empty()) cluster.checkpoint_dir = checkpoint_dir;
  if (resume) cluster.resume = true;
  if (deadline_ms > 0) cluster.job_deadline_ms = deadline_ms;
  if (stats_port >= 0) cluster.stats_port = stats_port;
  minispark::Context ctx(cluster);
  if (ctx.stats_port() >= 0) {
    std::printf("telemetry: http://127.0.0.1:%d/metrics and /healthz\n",
                ctx.stats_port());
  }
  SimilarityJoinConfig config;
  config.algorithm = *parsed;
  config.theta = theta;
  config.theta_c = theta_c;
  config.delta = delta;
  auto result = RunSimilarityJoin(&ctx, *dataset, config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu rankings, theta = %.3f, %s -> %zu similar pairs in %.3fs\n",
              dataset->size(), theta, AlgorithmName(*parsed),
              result->pairs.size(), result->stats.total_seconds);
  if (!result->plan_json.empty()) {
    std::printf("plan: %s\n", result->plan_json.c_str());
  }
  if (print_stats) {
    std::printf("%s\n", result->stats.ToString().c_str());
  }
  if (print_metrics) {
    std::printf("%s", ctx.metrics().ToString().c_str());
    for (const auto& [name, value] : ctx.counters().Snapshot()) {
      std::printf("counter %s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (lint) {
    const auto& report = ctx.lint_report();
    if (report.empty()) {
      std::printf("plan lint: clean (%s level)\n",
                  minispark::LintLevelName(ctx.lint_level()));
    } else {
      std::printf("plan lint: %zu issue(s)\n%s", report.size(),
                  minispark::FormatLintDiagnostics(report).c_str());
    }
  }
  if (!trace_out.empty()) {
    if (Status s = ctx.DumpTrace(trace_out); !s.ok()) {
      // Observability sinks degrade, they don't fail the run: the join
      // finished and its results are still good.
      std::fprintf(stderr, "warning: trace not written: %s\n",
                   s.ToString().c_str());
      ctx.counters().Add("obs.sink.degraded", 1);
      ctx.telemetry().MarkSinkDegraded();
    } else {
      std::printf("trace written to %s\n", trace_out.c_str());
    }
  }
  if (!output.empty()) {
    if (Status s = WriteResultPairs(output, result->pairs); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("pairs written to %s\n", output.c_str());
  }
  return 0;
}

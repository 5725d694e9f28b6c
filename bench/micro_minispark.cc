// google-benchmark suite for the minispark dataflow primitives: shuffle
// throughput, groupByKey, reduceByKey, and a narrow chain fused into its
// shuffle write.
// These bound the constant factors behind every distributed pipeline.
// Lazy outputs are forced with Count() so each iteration measures the
// full materialization, not just plan construction.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "minispark/dataset.h"

namespace rankjoin::minispark {
namespace {

Context::Options BenchCluster() {
  Context::Options options;
  options.num_workers = 4;
  options.default_partitions = 16;
  return options;
}

std::vector<std::pair<uint32_t, uint32_t>> MakeKv(size_t n, uint32_t keys) {
  Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back({static_cast<uint32_t>(rng.Uniform(keys)),
                    static_cast<uint32_t>(i)});
  }
  return data;
}

void BM_PartitionByKey(benchmark::State& state) {
  Context ctx(BenchCluster());
  auto data = MakeKv(static_cast<size_t>(state.range(0)), 1 << 16);
  auto ds = Parallelize(&ctx, data, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByKey(ds, 16));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionByKey)->Arg(10000)->Arg(100000);

void BM_GroupByKey(benchmark::State& state) {
  Context ctx(BenchCluster());
  auto data = MakeKv(static_cast<size_t>(state.range(0)), 1024);
  auto ds = Parallelize(&ctx, data, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupByKey(ds, 16).Count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByKey)->Arg(10000)->Arg(100000);

void BM_ReduceByKey(benchmark::State& state) {
  Context ctx(BenchCluster());
  auto data = MakeKv(static_cast<size_t>(state.range(0)), 1024);
  auto ds = Parallelize(&ctx, data, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReduceByKey(ds, [](uint32_t a, uint32_t b) { return a + b; }, 16)
            .Count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKey)->Arg(100000);

// map -> filter -> flatMap -> groupByKey, the canonical narrow chain of
// the join pipelines (prefix emission, predicate filters, re-keying).
// The three narrow ops execute inside the shuffle-write stage. The
// counters report stages executed and elements materialized per
// iteration so EXPERIMENTS.md can quote them directly.
void BM_ChainFused(benchmark::State& state) {
  Context ctx(BenchCluster());
  const size_t n = static_cast<size_t>(state.range(0));
  auto ds = Parallelize(&ctx, MakeKv(n, 1024), 16);
  ctx.metrics().Clear();
  for (auto _ : state) {
    auto chain =
        ds.Map(
              [](const std::pair<uint32_t, uint32_t>& kv) {
                return std::pair<uint32_t, uint32_t>(kv.first,
                                                     kv.second + 1);
              },
              "chain/shift")
            .Filter(
                [](const std::pair<uint32_t, uint32_t>& kv) {
                  return kv.second % 2 == 0;
                },
                "chain/evens")
            .FlatMap(
                [](const std::pair<uint32_t, uint32_t>& kv) {
                  return std::vector<std::pair<uint32_t, uint32_t>>{
                      kv, {kv.first + 1, kv.second}};
                },
                "chain/mirror");
    benchmark::DoNotOptimize(GroupByKey(chain, 16, "chain/group").Count());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["stages"] =
      static_cast<double>(ctx.metrics().NumStages()) / iters;
  state.counters["materialized"] =
      static_cast<double>(ctx.metrics().TotalMaterializedElements()) /
      iters;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainFused)->Arg(100000);

// Same shuffle, resident vs disk: arg is the memory budget in bytes
// (0 = unlimited). The spill counters quantify how much of the shuffle
// hit the temp files.
void ShuffleBudgetBenchmark(benchmark::State& state, uint64_t budget) {
  Context::Options options = BenchCluster();
  options.shuffle_memory_budget_bytes = budget;
  Context ctx(options);
  auto data = MakeKv(static_cast<size_t>(state.range(0)), 1 << 16);
  auto ds = Parallelize(&ctx, data, 16);
  ctx.metrics().Clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByKey(ds, 16).Count());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["spilled_bytes"] =
      static_cast<double>(ctx.metrics().TotalSpilledBytes()) / iters;
  state.counters["spilled_runs"] =
      static_cast<double>(ctx.metrics().TotalSpilledRuns()) / iters;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ShuffleResident(benchmark::State& state) {
  ShuffleBudgetBenchmark(state, /*budget=*/0);
}
BENCHMARK(BM_ShuffleResident)->Arg(100000);

void BM_ShuffleSpill(benchmark::State& state) {
  // 64 KB forces several spill runs per write task at 100k records.
  ShuffleBudgetBenchmark(state, /*budget=*/64 * 1024);
}
BENCHMARK(BM_ShuffleSpill)->Arg(100000);

/// Builds the canonical chain pipeline (the one ChainBenchmark
/// measures) over `ctx` and returns the grouped result, unforced.
Dataset<std::pair<uint32_t, std::vector<uint32_t>>> BuildChain(
    Context* ctx) {
  auto ds = Parallelize(ctx, MakeKv(1000, 64), 4);
  auto chain =
      ds.Map(
            [](const std::pair<uint32_t, uint32_t>& kv) {
              return std::pair<uint32_t, uint32_t>(kv.first, kv.second + 1);
            },
            "chain/shift")
          .Filter(
              [](const std::pair<uint32_t, uint32_t>& kv) {
                return kv.second % 2 == 0;
              },
              "chain/evens")
          .FlatMap(
              [](const std::pair<uint32_t, uint32_t>& kv) {
                return std::vector<std::pair<uint32_t, uint32_t>>{
                    kv, {kv.first + 1, kv.second}};
              },
              "chain/mirror");
  return GroupByKey(chain, 16, "chain/group");
}

/// Prints the DOT plan of the canonical chain pipeline without running
/// it — `--explain` wiring. With `observed` the pipeline runs first
/// under per-operator counters, so every node carries its in/out
/// element counts (`--explain-observed`).
void PrintExplainDot(bool observed) {
  Context::Options options = BenchCluster();
  if (observed) options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  auto grouped = BuildChain(&ctx);
  if (observed) grouped.Count();
  std::printf("%s", grouped.ExplainDot().c_str());
}

/// Runs the canonical chain pipeline once with per-operator counters on
/// and writes the engine metrics as JSON to `path` — `--metrics-json`
/// wiring (every fig* bench dumps the same shape via
/// RANKJOIN_METRICS_JSON; this flag needs no dataset).
int DumpMetricsJson(const std::string& path) {
  Context::Options options = BenchCluster();
  options.trace_level = TraceLevel::kCounters;
  Context ctx(options);
  BuildChain(&ctx).Count();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "%s", ctx.metrics().ToJson().c_str());
  std::fclose(out);
  std::printf("metrics written to %s\n", path.c_str());
  return 0;
}

/// `--lint` wiring: runs the plan linter (lint.h) over the canonical
/// chain pipeline (expected clean) and over a deliberately bad plan — a
/// repartition whose placement the next shuffle discards (MS002) — and
/// prints both reports, demonstrating the diagnostic format without
/// needing a dataset file.
int RunLintDemo() {
  Context::Options options = BenchCluster();
  options.lint_level = LintLevel::kWarn;
  Context ctx(options);

  const std::vector<LintDiagnostic> clean = BuildChain(&ctx).Lint();
  std::printf("chain pipeline: %s", clean.empty()
                                        ? "clean\n"
                                        : FormatLintDiagnostics(clean).c_str());

  auto ds = Parallelize(&ctx, MakeKv(1000, 64), 4);
  auto shifted = ds.Map(
      [](const std::pair<uint32_t, uint32_t>& kv) {
        return std::pair<uint32_t, uint32_t>(kv.first, kv.second + 1);
      },
      "demo/shift");
  // A placement shuffle feeding only another shuffle, which discards
  // its placement: MS002.
  auto placed = PartitionByKey(shifted, 8, "demo/place");
  auto grouped = GroupByKey(placed, 16, "demo/group");
  const std::vector<LintDiagnostic> bad = grouped.Lint();
  std::printf("demo bad plan:  %s", bad.empty()
                                        ? "clean\n"
                                        : FormatLintDiagnostics(bad).c_str());
  return 0;
}

}  // namespace
}  // namespace rankjoin::minispark

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--explain") {
      rankjoin::minispark::PrintExplainDot(/*observed=*/false);
      return 0;
    }
    if (arg == "--explain-observed") {
      rankjoin::minispark::PrintExplainDot(/*observed=*/true);
      return 0;
    }
    if (arg == "--lint") {
      return rankjoin::minispark::RunLintDemo();
    }
    if (arg == "--metrics-json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--metrics-json needs a path\n");
        return 2;
      }
      return rankjoin::minispark::DumpMetricsJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

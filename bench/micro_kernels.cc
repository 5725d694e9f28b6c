// Micro-benchmarks (google-benchmark) for the kernels on the join inner
// loops: Footrule distance (plain, merge-join, bounded, lane kernel),
// the signature bound, both also over random pairs of a 20k-row store,
// prefix-size math, Zipf sampling, reordering, the canonical order of a
// row, and the per-group local joins (plain and in (x, y) buckets).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "data/scale.h"
#include "join/local_join.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

RankingDataset MakeData(int k, size_t n) {
  GeneratorOptions options;
  options.k = k;
  options.num_rankings = n;
  options.domain_size = static_cast<uint32_t>(k) * 30;
  options.seed = 7;
  return GenerateDataset(options);
}

void BM_FootruleDistancePlain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 256);
  size_t i = 0;
  for (auto _ : state) {
    const Ranking& a = ds.rankings[i % ds.size()];
    const Ranking& b = ds.rankings[(i + 1) % ds.size()];
    benchmark::DoNotOptimize(FootruleDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistancePlain)->Arg(10)->Arg(25);

void BM_FootruleDistanceMergeJoin(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 256);
  auto ordered = MakeOrderedDataset(ds.rankings, ItemOrder());
  size_t i = 0;
  for (auto _ : state) {
    const OrderedRanking& a = ordered[i % ordered.size()];
    const OrderedRanking& b = ordered[(i + 1) % ordered.size()];
    benchmark::DoNotOptimize(FootruleDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistanceMergeJoin)->Arg(10)->Arg(25);

void BM_FootruleDistanceBounded(benchmark::State& state) {
  const int k = 10;
  RankingDataset ds = MakeData(k, 256);
  auto ordered = MakeOrderedDataset(ds.rankings, ItemOrder());
  const uint32_t bound = RawThreshold(0.01 * state.range(0), k);
  size_t i = 0;
  for (auto _ : state) {
    const OrderedRanking& a = ordered[i % ordered.size()];
    const OrderedRanking& b = ordered[(i + 1) % ordered.size()];
    benchmark::DoNotOptimize(FootruleDistanceBounded(a, b, bound));
    ++i;
  }
}
BENCHMARK(BM_FootruleDistanceBounded)->Arg(10)->Arg(40);  // theta*100

void BM_PrefixMath(benchmark::State& state) {
  uint32_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapPrefix(t % 109 + 1, 10));
    benchmark::DoNotOptimize(OrderedPrefix(t % 49 + 1, 10));
    ++t;
  }
}
BENCHMARK(BM_PrefixMath);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_MakeOrdered(benchmark::State& state) {
  RankingDataset ds = MakeData(10, 512);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeOrdered(ds.rankings[i % ds.size()], order));
    ++i;
  }
}
BENCHMARK(BM_MakeOrdered);

using CanonicalRanksFn = void (*)(const ItemId*, int, const ItemOrder&,
                                  uint16_t*);

/// One row's canonical order under a frequency order, over the rows of a
/// 4096-row store, by `canonical_ranks`.
void RunCanonicalRanks(benchmark::State& state,
                       CanonicalRanksFn canonical_ranks) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 4096);
  const FlatRankings& flat = ds.store();
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(flat));
  const size_t width = static_cast<size_t>(k);
  std::vector<uint16_t> ranks(width);
  size_t i = 0;
  for (auto _ : state) {
    canonical_ranks(flat.items() + (i % flat.size()) * width, k, order,
                    ranks.data());
    benchmark::DoNotOptimize(ranks.data());
    benchmark::ClobberMemory();
    ++i;
  }
}

/// CanonicalRanks as the store builds it: k = 10, 25 and 40 take the
/// count-rank of rows up to internal::kCountRankMaxK wide; k = 56 takes
/// the sort of wider rows.
void BM_CanonicalRanks(benchmark::State& state) {
  RunCanonicalRanks(state, CanonicalRanks);
}
BENCHMARK(BM_CanonicalRanks)->Arg(10)->Arg(25)->Arg(40)->Arg(56);

/// Both orderings CanonicalRanks picks between, each at every width on
/// the same rows, so the two arms show where they cross
/// (internal::kCountRankMaxK).
void BM_CanonicalRanksByCount(benchmark::State& state) {
  RunCanonicalRanks(state, internal::CanonicalRanksByCount);
}
BENCHMARK(BM_CanonicalRanksByCount)
    ->Arg(10)->Arg(25)->Arg(32)->Arg(40)->Arg(48)->Arg(56)->Arg(64);

void BM_CanonicalRanksBySort(benchmark::State& state) {
  RunCanonicalRanks(state, internal::CanonicalRanksBySort);
}
BENCHMARK(BM_CanonicalRanksBySort)
    ->Arg(10)->Arg(25)->Arg(32)->Arg(40)->Arg(48)->Arg(56)->Arg(64);

/// Args: k, then 1 for the compare written out for the row's chunk
/// count (what the pair loops run for k <= 32) or 0 for the run-time
/// chunk count (what they run above).
void BM_PairKernelDistance(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const bool unrolled = state.range(1) != 0;
  RankingDataset ds = MakeData(k, 256);
  const JoinStore store = JoinStore::Build(ds.store(), ItemOrder());
  const PairKernel& kernel = store.kernel();
  RowIndex i = 0;
  for (auto _ : state) {
    const ItemId* a = store.items(i % store.size());
    const ItemId* b = store.items((i + 1) % store.size());
    benchmark::DoNotOptimize(unrolled ? kernel.Distance(a, b)
                                      : kernel.DistanceAt<0>(a, b));
    ++i;
  }
}
BENCHMARK(BM_PairKernelDistance)
    ->Args({10, 1})
    ->Args({10, 0})
    ->Args({25, 1})
    ->Args({25, 0});

/// Arg: k. The signature bound the pair loops test on every candidate
/// before the kernel, over the same neighbouring rows.
void BM_SignatureBound(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RankingDataset ds = MakeData(k, 256);
  const JoinStore store = JoinStore::Build(ds.store(), ItemOrder());
  const SignatureBound bound = store.kernel().signature_bound();
  RowIndex i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound(store.signature(i % store.size()),
                                   store.signature((i + 1) % store.size())));
    ++i;
  }
}
BENCHMARK(BM_SignatureBound)->Arg(10)->Arg(25);

/// The shape of a pipeline's candidates: seeded random row pairs of a
/// 20k-row store, so most rows come from L2 or beyond instead of L1.
struct ColdPairs {
  static constexpr size_t kRows = 20000;
  static constexpr size_t kPairs = size_t{1} << 16;

  explicit ColdPairs(int k) : store(BuildStore(k)) {
    Rng rng(20);
    for (size_t i = 0; i < kPairs; ++i) {
      pairs.push_back({static_cast<RowIndex>(rng.Uniform(kRows)),
                       static_cast<RowIndex>(rng.Uniform(kRows))});
    }
  }

  static JoinStore BuildStore(int k) {
    RankingDataset ds = MakeData(k, kRows);
    return JoinStore::Build(ds.store(), ItemOrder());
  }

  JoinStore store;
  std::vector<std::pair<RowIndex, RowIndex>> pairs;
};

/// Arg: k. BM_PairKernelDistance over ColdPairs.
void BM_PairKernelDistanceCold(benchmark::State& state) {
  const ColdPairs cold(static_cast<int>(state.range(0)));
  const PairKernel& kernel = cold.store.kernel();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = cold.pairs[i++ % ColdPairs::kPairs];
    benchmark::DoNotOptimize(
        kernel.Distance(cold.store.items(a), cold.store.items(b)));
  }
}
BENCHMARK(BM_PairKernelDistanceCold)->Arg(10)->Arg(25);

/// Arg: k. BM_SignatureBound over ColdPairs.
void BM_SignatureBoundCold(benchmark::State& state) {
  const ColdPairs cold(static_cast<int>(state.range(0)));
  const SignatureBound bound = cold.store.kernel().signature_bound();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = cold.pairs[i++ % ColdPairs::kPairs];
    benchmark::DoNotOptimize(
        bound(cold.store.signature(a), cold.store.signature(b)));
  }
}
BENCHMARK(BM_SignatureBoundCold)->Arg(10)->Arg(25);

/// One posting-list group of the given size, shared key item 0.
std::pair<JoinStore, std::vector<PrefixPosting>> MakeGroup(size_t n, int k) {
  Rng rng(11);
  FlatRankings::Builder builder(k);
  std::vector<PrefixPosting> group;
  for (size_t i = 0; i < n; ++i) {
    std::vector<ItemId> items{0};
    while (static_cast<int>(items.size()) < k) {
      ItemId candidate = static_cast<ItemId>(1 + rng.Uniform(60));
      bool seen = false;
      for (ItemId item : items) seen |= item == candidate;
      if (!seen) items.push_back(candidate);
    }
    rng.Shuffle(items);
    builder.Append(static_cast<RankingId>(i), items.data());
    uint16_t key_rank = 0;
    for (size_t r = 0; r < items.size(); ++r) {
      if (items[r] == 0) key_rank = static_cast<uint16_t>(r);
    }
    group.push_back(PrefixPosting{static_cast<RowIndex>(i), key_rank, false});
  }
  const FlatRankings flat = std::move(builder).Build();
  return {JoinStore::Build(flat, ItemOrder()), std::move(group)};
}

void BM_LocalNestedLoopJoin(benchmark::State& state) {
  auto [store, group] = MakeGroup(static_cast<size_t>(state.range(0)), 10);
  LocalJoinOptions options;
  options.store = &store;
  options.raw_theta = RawThreshold(0.2, 10);
  for (auto _ : state) {
    std::vector<ScoredPair> out;
    JoinStats stats;
    LocalNestedLoopJoin(group, options, &out, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LocalNestedLoopJoin)->Range(64, 1024)->Complexity();

void BM_LocalPrefixJoin(benchmark::State& state) {
  auto [store, group] = MakeGroup(static_cast<size_t>(state.range(0)), 10);
  LocalJoinOptions options;
  options.store = &store;
  options.raw_theta = RawThreshold(0.2, 10);
  for (auto _ : state) {
    std::vector<ScoredPair> out;
    JoinStats stats;
    LocalPrefixJoin(group, options, &out, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LocalPrefixJoin)->Range(64, 1024)->Complexity();

/// The posting groups of DBLPx20 (DblpLikeOptions scaled x20, 80k
/// rankings: at theta 0.3 the largest group holds 678 postings, at 0.05
/// 129) under the rank-weighted prefix at `theta`, each group's
/// postings in row order.
struct DblpGroups {
  JoinStore store;
  uint32_t raw_theta = 0;
  std::vector<std::vector<PrefixPosting>> groups;
};

const DblpGroups& DblpGroupsAt(int theta_percent) {
  static std::map<int, DblpGroups> cache;
  auto [it, fresh] = cache.try_emplace(theta_percent);
  DblpGroups& out = it->second;
  if (!fresh) return out;
  const GeneratorOptions base = DblpLikeOptions();
  const RankingDataset ds = ScaleDataset(GenerateDataset(base), 20,
                                         base.domain_size, 3);
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  out.store = JoinStore::Build(ds.store(), order);
  out.raw_theta = RawThreshold(0.01 * theta_percent, base.k);
  std::map<ItemId, std::vector<PrefixPosting>> by_item;
  for (RowIndex row = 0; row < out.store.size(); ++row) {
    for (const auto& [item, posting] : EmitPrefix(
             out.store, row, out.raw_theta, PrefixMode::kOverlap)) {
      by_item[item].push_back(posting);
    }
  }
  for (auto& [item, group] : by_item) out.groups.push_back(std::move(group));
  return out;
}

/// The plain pair loop against the bucketed one (arg 2: 0 plain, 1
/// bucketed) of LocalPrefixJoin (VJ and CL's clustering) on DBLP-like
/// posting groups of one size (arg 0): the first postings of up to 64
/// DBLPx20 groups at least that large, at theta arg 1 / 100. Both loops
/// run on the same groups, so the time ratio of the two arms at each size
/// is what sets local_join_internal::kMinBucketedGroup. NestedLoopJoin's
/// key-rank loop (VJ-NL, the centroid join, chunk pairs) is the same
/// loop where the position filter can fire.
void BM_GroupJoin(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const DblpGroups& data = DblpGroupsAt(static_cast<int>(state.range(1)));
  const size_t min_bucketed =
      state.range(2) != 0 ? 2 : std::numeric_limits<size_t>::max();
  std::vector<std::vector<PrefixPosting>> picked;
  for (const auto& group : data.groups) {
    if (group.size() < size) continue;
    picked.emplace_back(group.begin(),
                        group.begin() + static_cast<ptrdiff_t>(size));
    if (picked.size() == 64) break;
  }
  if (picked.empty()) {
    state.SkipWithError("no group that large");
    return;
  }
  LocalJoinOptions options;
  options.store = &data.store;
  options.raw_theta = data.raw_theta;
  JoinStats stats;
  std::vector<ScoredPair> out;
  for (auto _ : state) {
    for (const auto& group : picked) {
      local_join_internal::LocalPrefixJoinFrom(group, options, min_bucketed,
                                               &out, &stats);
      out.clear();
    }
  }
  state.counters["groups"] = static_cast<double>(picked.size());
  state.counters["candidates_per_group"] =
      static_cast<double>(stats.candidates) /
      static_cast<double>(state.iterations() * picked.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(picked.size()));
}
BENCHMARK(BM_GroupJoin)
    ->ArgsProduct(
        {{4, 8, 12, 16, 20, 24, 32, 48, 64, 128, 256, 512}, {30, 5}, {0, 1}});

}  // namespace
}  // namespace rankjoin

BENCHMARK_MAIN();

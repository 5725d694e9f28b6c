#include "minispark/shuffle.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "minispark/dataset.h"
#include "minispark/serde.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::PairSet;
using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::SmallSkewedDataset;
using rankjoin::testutil::TestCluster;

// ---------------------------------------------------------------------
// Serde round-trips
// ---------------------------------------------------------------------

template <typename T>
T RoundTrip(const T& value) {
  std::string buf;
  Serde<T>::Write(value, &buf);
  EXPECT_EQ(buf.size(), Serde<T>::Size(value));
  const char* p = buf.data();
  const char* end = p + buf.size();
  T out;
  Serde<T>::Read(&p, end, &out);
  EXPECT_EQ(p, end);
  return out;
}

TEST(SerdeTest, TriviallyCopyableMemcpyPath) {
  EXPECT_EQ(RoundTrip<int>(-42), -42);
  EXPECT_EQ(RoundTrip<uint64_t>(0xdeadbeefcafeULL), 0xdeadbeefcafeULL);
  EXPECT_EQ(RoundTrip<double>(3.25), 3.25);
  struct Pod {
    int a;
    char b;
    double c;
    bool operator==(const Pod& o) const {
      return a == o.a && b == o.b && c == o.c;
    }
  };
  const Pod pod{7, 'x', -1.5};
  EXPECT_EQ(RoundTrip(pod), pod);
}

TEST(SerdeTest, StringsIncludingEmpty) {
  EXPECT_EQ(RoundTrip<std::string>(""), "");
  EXPECT_EQ(RoundTrip<std::string>("hello shuffle"), "hello shuffle");
  const std::string binary("\x00\x01\xff with NUL", 12);
  EXPECT_EQ(RoundTrip(binary), binary);
}

TEST(SerdeTest, PairsNestAndMix) {
  // std::pair is never trivially copyable, so even POD pairs must take
  // the field-wise specialization.
  static_assert(!std::is_trivially_copyable_v<std::pair<int, int>>);
  const std::pair<int, int> p{1, 2};
  EXPECT_EQ(RoundTrip(p), p);
  const std::pair<std::string, uint32_t> kv{"key", 9};
  EXPECT_EQ(RoundTrip(kv), kv);
  const std::pair<std::pair<int, int>, std::string> nested{{3, 4}, "deep"};
  EXPECT_EQ(RoundTrip(nested), nested);
}

TEST(SerdeTest, VectorsBulkAndElementwise) {
  const std::vector<int> pods{1, 2, 3, 4};
  EXPECT_EQ(RoundTrip(pods), pods);
  EXPECT_EQ(RoundTrip(std::vector<int>{}), std::vector<int>{});
  const std::vector<std::string> strings{"a", "", "ccc"};
  EXPECT_EQ(RoundTrip(strings), strings);
  const std::vector<std::pair<uint32_t, std::vector<int>>> deep{
      {1, {10, 11}}, {2, {}}, {3, {30}}};
  EXPECT_EQ(RoundTrip(deep), deep);
}

TEST(SerdeTest, ConcatenatedRecordsDecodeInOrder) {
  using Rec = std::pair<int, std::string>;
  const std::vector<Rec> records{{1, "one"}, {2, ""}, {3, "three"}};
  std::string buf;
  for (const Rec& r : records) Serde<Rec>::Write(r, &buf);
  const char* p = buf.data();
  const char* end = p + buf.size();
  for (const Rec& expected : records) {
    Rec got;
    Serde<Rec>::Read(&p, end, &got);
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(p, end);
}

// ---------------------------------------------------------------------
// PartitionRanges coalescing invariants
// ---------------------------------------------------------------------

/// Checks the structural invariants every range view must satisfy:
/// ranges are contiguous, non-empty, and cover all buckets exactly once.
void CheckCoversAllBuckets(const PartitionRanges& ranges, int num_buckets) {
  ASSERT_EQ(ranges.num_buckets(), num_buckets);
  int expected_begin = 0;
  for (int p = 0; p < ranges.NumPartitions(); ++p) {
    EXPECT_EQ(ranges.begin(p), expected_begin);
    EXPECT_LT(ranges.begin(p), ranges.end(p));  // never empty
    expected_begin = ranges.end(p);
  }
  EXPECT_EQ(expected_begin, num_buckets);
}

TEST(PartitionRangesTest, IdentityIsOneRangePerBucket) {
  const PartitionRanges ranges = PartitionRanges::Identity(4);
  EXPECT_EQ(ranges.NumPartitions(), 4);
  EXPECT_EQ(ranges.CoalescedAway(), 0);
  CheckCoversAllBuckets(ranges, 4);
}

TEST(PartitionRangesTest, ZeroTargetDisablesCoalescing) {
  const PartitionRanges ranges =
      PartitionRanges::Coalesce({10, 20, 30}, /*target_bytes=*/0);
  EXPECT_EQ(ranges.NumPartitions(), 3);
  EXPECT_EQ(ranges.CoalescedAway(), 0);
}

TEST(PartitionRangesTest, MergesAdjacentSmallBuckets) {
  // 10+10+10 fit in 35; the fourth starts a new range.
  const PartitionRanges ranges =
      PartitionRanges::Coalesce({10, 10, 10, 10}, /*target_bytes=*/35);
  CheckCoversAllBuckets(ranges, 4);
  EXPECT_EQ(ranges.NumPartitions(), 2);
  EXPECT_EQ(ranges.end(0), 3);
  EXPECT_EQ(ranges.CoalescedAway(), 2);
}

TEST(PartitionRangesTest, OversizedBucketKeepsItsOwnRange) {
  const PartitionRanges ranges =
      PartitionRanges::Coalesce({5, 100, 5, 5}, /*target_bytes=*/20);
  CheckCoversAllBuckets(ranges, 4);
  // The 100-byte bucket exceeds the target on its own: it must not drag
  // neighbors in, and the trailing small buckets merge among themselves.
  EXPECT_EQ(ranges.NumPartitions(), 3);
  EXPECT_EQ(ranges.begin(1), 1);
  EXPECT_EQ(ranges.end(1), 2);
  EXPECT_EQ(ranges.end(2), 4);
}

TEST(PartitionRangesTest, AllEmptyBucketsCollapseToOne) {
  const PartitionRanges ranges =
      PartitionRanges::Coalesce({0, 0, 0, 0, 0}, /*target_bytes=*/1024);
  CheckCoversAllBuckets(ranges, 5);
  EXPECT_EQ(ranges.NumPartitions(), 1);
  EXPECT_EQ(ranges.CoalescedAway(), 4);
}

TEST(PartitionRangesTest, RangeSizesRespectTargetUnlessSingle) {
  const std::vector<uint64_t> sizes{8, 8, 8, 50, 3, 3, 3, 3, 40, 1};
  const uint64_t target = 24;
  const PartitionRanges ranges = PartitionRanges::Coalesce(sizes, target);
  CheckCoversAllBuckets(ranges, static_cast<int>(sizes.size()));
  for (int p = 0; p < ranges.NumPartitions(); ++p) {
    uint64_t total = 0;
    for (int b = ranges.begin(p); b < ranges.end(p); ++b) total += sizes[b];
    if (ranges.end(p) - ranges.begin(p) > 1) {
      EXPECT_LE(total, target) << "multi-bucket range " << p;
    }
  }
}

// ---------------------------------------------------------------------
// ShuffleService: spill-vs-resident equivalence on raw datasets
// ---------------------------------------------------------------------

Context::Options SpillCluster(uint64_t budget) {
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = budget;
  return options;
}

std::vector<std::pair<int, std::string>> KeyedRecords(int n) {
  std::vector<std::pair<int, std::string>> records;
  records.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    records.push_back({i % 37, "value-" + std::to_string(i)});
  }
  return records;
}

TEST(ShuffleSpillTest, PartitionByKeyIdenticalWithTinyBudget) {
  Context resident_ctx(TestCluster());
  Context spill_ctx(SpillCluster(512));
  auto run = [](Context* ctx) {
    auto ds = Parallelize(ctx, KeyedRecords(3000), 6);
    return PartitionByKey(ds, 8, "spillShuffle").Collect();
  };
  const auto expected = run(&resident_ctx);
  const auto got = run(&spill_ctx);
  EXPECT_EQ(got, expected);  // byte-identical, including order
  EXPECT_GT(spill_ctx.metrics().TotalSpilledBytes(), 0u);
  EXPECT_GT(spill_ctx.metrics().TotalSpilledRuns(), 0u);
  if (std::getenv("RANKJOIN_SHUFFLE_BUDGET_BYTES") == nullptr) {
    EXPECT_EQ(resident_ctx.metrics().TotalSpilledBytes(), 0u);
  }
}

TEST(ShuffleSpillTest, SpillCountersLandOnWriteStage) {
  Context ctx(SpillCluster(256));
  auto ds = Parallelize(&ctx, KeyedRecords(2000), 4);
  PartitionByKey(ds, 8, "counted").Collect();
  bool found_write_spill = false;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.name == "counted/shuffle-write") {
      EXPECT_GT(stage.spilled_bytes, 0u);
      EXPECT_GT(stage.spilled_runs, 0u);
      found_write_spill = true;
    }
  }
  EXPECT_TRUE(found_write_spill);
}

TEST(ShuffleSpillTest, UnionShuffleAndGroupIdenticalWithTinyBudget) {
  auto run = [](Context* ctx) {
    auto left = Parallelize(ctx, KeyedRecords(800), 4);
    auto right = Parallelize(ctx, KeyedRecords(900), 5);
    auto placed =
        PartitionByKey(Union(left, right), 8, "spillUnion").Collect();
    auto grouped =
        GroupByKey(Parallelize(ctx, KeyedRecords(700), 4), 8, "spillGroup")
            .Collect();
    return std::make_pair(placed, grouped);
  };
  Context resident_ctx(TestCluster());
  Context spill_ctx(SpillCluster(512));
  const auto expected = run(&resident_ctx);
  const auto got = run(&spill_ctx);
  EXPECT_EQ(got.first, expected.first);
  EXPECT_EQ(got.second, expected.second);
  EXPECT_GT(spill_ctx.metrics().TotalSpilledBytes(), 0u);
}

// ---------------------------------------------------------------------
// Spill-correctness across the full join pipelines
// ---------------------------------------------------------------------

TEST(PipelineSpillTest, AllRankingPipelinesIdenticalUnderSpill) {
  const RankingDataset ds = SmallSkewedDataset(77, 300);
  for (Algorithm algorithm : {Algorithm::kVJ, Algorithm::kVJNL,
                              Algorithm::kCL, Algorithm::kCLP,
                              Algorithm::kVSmart}) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = 0.3;
    config.delta = 40;  // CL-P only

    Context resident_ctx(TestCluster());
    auto resident = RunSimilarityJoin(&resident_ctx, ds, config);
    ASSERT_TRUE(resident.ok()) << AlgorithmName(algorithm);

    Context spill_ctx(SpillCluster(2048));
    auto spilled = RunSimilarityJoin(&spill_ctx, ds, config);
    ASSERT_TRUE(spilled.ok()) << AlgorithmName(algorithm);

    EXPECT_EQ(spilled->pairs, resident->pairs) << AlgorithmName(algorithm);
    EXPECT_GT(spill_ctx.metrics().TotalSpilledBytes(), 0u)
        << AlgorithmName(algorithm);
  }
}

TEST(PipelineSpillTest, JaccardPipelinesIdenticalUnderSpill) {
  const RankingDataset ds = SmallSkewedDataset(78, 250);
  JaccardJoinOptions options;
  options.theta = 0.3;

  Context vj_resident(TestCluster());
  Context vj_spill(SpillCluster(2048));
  auto vj_a = RunJaccardVjJoin(&vj_resident, ds, options);
  auto vj_b = RunJaccardVjJoin(&vj_spill, ds, options);
  ASSERT_TRUE(vj_a.ok() && vj_b.ok());
  EXPECT_EQ(vj_b->pairs, vj_a->pairs);
  EXPECT_GT(vj_spill.metrics().TotalSpilledBytes(), 0u);

  Context cl_resident(TestCluster());
  Context cl_spill(SpillCluster(2048));
  auto cl_a = RunJaccardClusterJoin(&cl_resident, ds, options);
  auto cl_b = RunJaccardClusterJoin(&cl_spill, ds, options);
  ASSERT_TRUE(cl_a.ok() && cl_b.ok());
  EXPECT_EQ(cl_b->pairs, cl_a->pairs);
  EXPECT_GT(cl_spill.metrics().TotalSpilledBytes(), 0u);
}

// ---------------------------------------------------------------------
// Adaptive coalescing through the wide operations. Pipelined exchanges
// are never coalesced, so the tests that expect coalescing pin barrier
// stages (the CI pipelined job sets RANKJOIN_PIPELINED_STAGES=on).
// ---------------------------------------------------------------------

TEST(CoalesceTest, SmallShuffleCollapsesReadTasks) {
  ScopedEnv pipelined_env("RANKJOIN_PIPELINED_STAGES", nullptr);
  Context::Options options = TestCluster(/*workers=*/4, /*partitions=*/16);
  options.pipelined_stages = false;
  options.target_partition_bytes = 1 << 20;  // far above the data size
  Context ctx(options);
  auto ds = Parallelize(&ctx, KeyedRecords(500), 4);
  auto shuffled = PartitionByKey(ds, 16, "coalesced");
  // All 16 tiny buckets fit one target: a single read partition.
  EXPECT_LT(shuffled.num_partitions(), 16);
  EXPECT_GT(ctx.metrics().TotalCoalescedPartitions(), 0u);
  // No records lost, grouping contract intact: every key in one place.
  auto parts = shuffled.partitions();
  size_t total = 0;
  std::set<int> seen_keys;
  for (size_t p = 0; p < parts.size(); ++p) {
    std::set<int> local;
    for (const auto& kv : parts[p]) local.insert(kv.first);
    for (int key : local) {
      EXPECT_TRUE(seen_keys.insert(key).second)
          << "key " << key << " split across partitions";
    }
    total += parts[p].size();
  }
  EXPECT_EQ(total, 500u);
}

TEST(CoalesceTest, ReduceByKeyJobUsesFewerReadTasks) {
  // The acceptance scenario: a ReduceByKey job over few keys with a byte
  // target reports coalesced partitions and fewer read tasks than
  // default_partitions.
  ScopedEnv pipelined_env("RANKJOIN_PIPELINED_STAGES", nullptr);
  Context::Options options = TestCluster(/*workers=*/4, /*partitions=*/12);
  options.pipelined_stages = false;
  options.target_partition_bytes = 1 << 20;
  Context ctx(options);
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 4000; ++i) data.push_back({i % 97, 1});
  auto counts = ReduceByKey(Parallelize(&ctx, data, 6),
                            [](int a, int b) { return a + b; }, -1,
                            "coalescedReduce");
  std::vector<std::pair<int, int>> values = counts.Collect();
  std::set<int> keys;
  int total = 0;
  for (const auto& [key, count] : values) {
    keys.insert(key);
    total += count;
  }
  EXPECT_EQ(values.size(), 97u);
  EXPECT_EQ(keys.size(), 97u);
  EXPECT_EQ(total, 4000);
  EXPECT_GT(ctx.metrics().TotalCoalescedPartitions(), 0u);
  uint64_t read_tasks = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.name == "coalescedReduce/shuffle-read") {
      read_tasks = stage.task_seconds.size();
    }
  }
  EXPECT_GT(read_tasks, 0u);
  EXPECT_LT(read_tasks, 12u);
}

TEST(CoalesceTest, GroupByKeyUnaffectedByDefault) {
  // Default options: no coalescing, partition count stays as requested.
  Context ctx(TestCluster());
  auto ds = Parallelize(&ctx, KeyedRecords(200), 4);
  auto shuffled = PartitionByKey(ds, 5, "defaultShuffle");
  EXPECT_EQ(shuffled.num_partitions(), 5);
  EXPECT_EQ(ctx.metrics().TotalCoalescedPartitions(), 0u);
}

TEST(CoalesceTest, PipelineResultsUnchangedUnderCoalescing) {
  const RankingDataset ds = SmallSkewedDataset(79, 250);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = 0.3;
  config.delta = 40;
  ScopedEnv pipelined_env("RANKJOIN_PIPELINED_STAGES", nullptr);

  Context baseline_ctx(TestCluster());
  auto baseline = RunSimilarityJoin(&baseline_ctx, ds, config);
  ASSERT_TRUE(baseline.ok());

  Context::Options options = TestCluster();
  options.pipelined_stages = false;
  options.target_partition_bytes = 1 << 16;
  Context coalesced_ctx(options);
  auto coalesced = RunSimilarityJoin(&coalesced_ctx, ds, config);
  ASSERT_TRUE(coalesced.ok());

  EXPECT_EQ(PairSet(coalesced->pairs), PairSet(baseline->pairs));
  EXPECT_GT(coalesced_ctx.metrics().TotalCoalescedPartitions(), 0u);
}

}  // namespace
}  // namespace rankjoin::minispark

#include "minispark/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "minispark/metrics.h"
#include "minispark/partitioner.h"

namespace rankjoin::minispark {
namespace {

Context::Options SmallCluster() {
  Context::Options options;
  options.num_workers = 4;
  options.default_partitions = 4;
  return options;
}

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(PartitionerTest, Mix64Scatters) {
  // Dense integers must not map to consecutive partitions (identity hash
  // would defeat the skew experiments).
  HashPartitioner p(8);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[p.PartitionOf(i)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(PartitionerTest, PairKeysHash) {
  HashPartitioner p(16);
  std::pair<uint32_t, uint32_t> a{1, 2};
  std::pair<uint32_t, uint32_t> b{2, 1};
  // Not a strict requirement, but the mixed hash should distinguish
  // swapped components.
  EXPECT_NE(ShuffleHash(a), ShuffleHash(b));
}

TEST(DatasetTest, ParallelizeSplitsAndCollects) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(10), 3);
  EXPECT_EQ(ds.num_partitions(), 3);
  EXPECT_EQ(ds.Count(), 10u);
  EXPECT_EQ(ds.Collect(), Iota(10));
}

TEST(DatasetTest, ParallelizeUsesContextDefault) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(10));
  EXPECT_EQ(ds.num_partitions(), 4);
}

TEST(DatasetTest, ParallelizeEmpty) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, std::vector<int>{}, 2);
  EXPECT_EQ(ds.Count(), 0u);
  EXPECT_TRUE(ds.Collect().empty());
}

TEST(DatasetTest, MapTransformsEveryElement) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(8), 2);
  auto doubled = ds.Map([](const int& x) { return x * 2; });
  std::vector<int> expect = {0, 2, 4, 6, 8, 10, 12, 14};
  EXPECT_EQ(doubled.Collect(), expect);
}

TEST(DatasetTest, MapChangesType) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(3), 2);
  auto strings =
      ds.Map([](const int& x) { return std::to_string(x); });
  EXPECT_EQ(strings.Collect(), (std::vector<std::string>{"0", "1", "2"}));
}

TEST(DatasetTest, FlatMapExpands) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(3), 2);
  auto repeated = ds.FlatMap([](const int& x) {
    return std::vector<int>(static_cast<size_t>(x), x);
  });
  EXPECT_EQ(repeated.Collect(), (std::vector<int>{1, 2, 2}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(10), 3);
  auto evens = ds.Filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.Collect(), (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(DatasetTest, MapPartitionsSeesWholePartition) {
  Context ctx(SmallCluster());
  auto ds = Parallelize(&ctx, Iota(9), 3);
  auto sums = ds.MapPartitionsWithIndex(
      [](int /*index*/, const std::vector<int>& part) {
        int total = 0;
        for (int x : part) total += x;
        return std::vector<int>{total};
      });
  auto collected = sums.Collect();
  EXPECT_EQ(collected.size(), 3u);
  EXPECT_EQ(std::accumulate(collected.begin(), collected.end(), 0), 36);
}

TEST(KeyValueTest, PartitionByKeyGroupsKeys) {
  Context ctx(SmallCluster());
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 40; ++i) data.push_back({i % 5, i});
  auto ds = Parallelize(&ctx, data, 4);
  auto shuffled = PartitionByKey(ds, 3);
  EXPECT_EQ(shuffled.num_partitions(), 3);
  EXPECT_EQ(shuffled.Count(), 40u);
  // All records of one key land in the same partition.
  for (int key = 0; key < 5; ++key) {
    int partitions_with_key = 0;
    for (const auto& part : shuffled.partitions()) {
      bool has = false;
      for (const auto& kv : part) has |= kv.first == key;
      partitions_with_key += has;
    }
    EXPECT_EQ(partitions_with_key, 1) << "key " << key;
  }
}

TEST(KeyValueTest, GroupByKeyCollectsAllValues) {
  Context ctx(SmallCluster());
  std::vector<std::pair<std::string, int>> data = {
      {"a", 1}, {"b", 2}, {"a", 3}, {"b", 4}, {"a", 5}};
  auto ds = Parallelize(&ctx, data, 2);
  auto grouped = GroupByKey(ds, 2);
  auto collected = grouped.Collect();
  ASSERT_EQ(collected.size(), 2u);
  for (auto& [key, values] : collected) {
    std::sort(values.begin(), values.end());
    if (key == "a") {
      EXPECT_EQ(values, (std::vector<int>{1, 3, 5}));
    } else {
      EXPECT_EQ(values, (std::vector<int>{2, 4}));
    }
  }
}

TEST(KeyValueTest, ReduceByKeySums) {
  Context ctx(SmallCluster());
  std::vector<std::pair<int, int>> data;
  for (int i = 1; i <= 100; ++i) data.push_back({i % 3, i});
  auto ds = Parallelize(&ctx, data, 4);
  auto reduced =
      ReduceByKey(ds, [](int a, int b) { return a + b; }, 2);
  auto collected = reduced.Collect();
  ASSERT_EQ(collected.size(), 3u);
  int total = 0;
  for (const auto& [k, v] : collected) total += v;
  EXPECT_EQ(total, 5050);
}

TEST(BroadcastTest, SharesValue) {
  Context ctx(SmallCluster());
  Broadcast<std::vector<int>> bc = ctx.MakeBroadcast(Iota(5));
  Broadcast<std::vector<int>> copy = bc;
  EXPECT_EQ(&*bc, &*copy);
  EXPECT_EQ(copy->size(), 5u);
}

TEST(MetricsTest, ShuffleRecordsCounted) {
  Context ctx(SmallCluster());
  ctx.metrics().Clear();
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 30; ++i) data.push_back({i, i});
  auto ds = Parallelize(&ctx, data, 3);
  PartitionByKey(ds, 2, "testShuffle");
  uint64_t shuffled = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.name.rfind("testShuffle", 0) == 0) {
      shuffled += stage.shuffle_records;
    }
  }
  EXPECT_EQ(shuffled, 30u);
}

TEST(MetricsTest, SimulatedMakespanLpt) {
  StageMetrics stage;
  stage.task_seconds = {4.0, 3.0, 2.0, 1.0};
  // 1 worker: sum = 10. 2 workers LPT: {4,1} vs {3,2} -> 5.
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(1), 10.0);
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(2), 5.0);
  // More workers than tasks: longest task dominates.
  EXPECT_DOUBLE_EQ(stage.SimulatedMakespan(8), 4.0);
}

TEST(MetricsTest, JobMakespanAddsStages) {
  JobMetrics job;
  StageMetrics s1;
  s1.task_seconds = {2.0, 2.0};
  StageMetrics s2;
  s2.task_seconds = {1.0};
  job.AddStage(s1);
  job.AddStage(s2);
  EXPECT_DOUBLE_EQ(job.SimulatedMakespan(2), 3.0);
  EXPECT_DOUBLE_EQ(job.TotalTaskSeconds(), 5.0);
}

TEST(MetricsTest, ToStringMentionsStageNames) {
  Context ctx(SmallCluster());
  ctx.metrics().Clear();
  // Transformations are lazy — the stage exists only once it is forced.
  Parallelize(&ctx, Iota(4), 2)
      .Map([](const int& x) { return x; }, "namedStage")
      .Collect();
  EXPECT_NE(ctx.metrics().ToString().find("namedStage"), std::string::npos);
}

TEST(LazyTest, TransformationsDeferUntilForced) {
  Context ctx(SmallCluster());
  std::atomic<int> calls{0};
  auto ds = Parallelize(&ctx, Iota(8), 2).Map([&calls](const int& x) {
    ++calls;
    return x + 1;
  });
  EXPECT_FALSE(ds.materialized());
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(ds.Collect().size(), 8u);
  EXPECT_TRUE(ds.materialized());
  EXPECT_EQ(calls.load(), 8);
}

TEST(LazyTest, NarrowChainFusesIntoOneStage) {
  Context ctx(SmallCluster());
  ctx.metrics().Clear();
  auto out =
      Parallelize(&ctx, Iota(100), 4)
          .Map([](const int& x) { return x * 2; }, "double")
          .Filter([](const int& x) { return x % 4 == 0; }, "mult4")
          .FlatMap([](const int& x) { return std::vector<int>{x, x}; },
                   "dup");
  EXPECT_EQ(out.pending_ops(), "map+filter+flatMap");
  EXPECT_EQ(out.Collect().size(), 100u);
  // The source records no stage; ONE runs the whole fused chain.
  EXPECT_EQ(ctx.metrics().NumStages(), 1u);
  bool found = false;
  for (const auto& stage : ctx.metrics().stages()) {
    found |= stage.fused_ops == "map+filter+flatMap";
  }
  EXPECT_TRUE(found);
}

TEST(LazyTest, ForceMaterializesExactlyOnce) {
  Context ctx(SmallCluster());
  std::atomic<int> calls{0};
  auto ds = Parallelize(&ctx, Iota(10), 2).Map([&calls](const int& x) {
    ++calls;
    return x;
  });
  EXPECT_TRUE(ds.Force().ok());
  EXPECT_TRUE(ds.materialized());
  EXPECT_EQ(calls.load(), 10);
  // Further actions reuse the materialized partitions.
  ds.Collect();
  ds.Count();
  ds.Force();
  EXPECT_EQ(calls.load(), 10);
}

TEST(LazyTest, CopiedHandlesShareMaterialization) {
  Context ctx(SmallCluster());
  std::atomic<int> calls{0};
  auto ds = Parallelize(&ctx, Iota(6), 2).Map([&calls](const int& x) {
    ++calls;
    return x;
  });
  auto copy = ds;  // handles share the plan state
  copy.Collect();
  ds.Collect();
  EXPECT_EQ(calls.load(), 6);
}

TEST(LazyTest, NarrowChainFusesIntoShuffleWrite) {
  Context ctx(SmallCluster());
  ctx.metrics().Clear();
  auto keyed = Parallelize(&ctx, Iota(20), 2).Map(
      [](const int& x) {
        return std::pair<int, int>(x % 3, x);
      },
      "key");
  EXPECT_EQ(GroupByKey(keyed, 2, "g").Collect().size(), 3u);
  // The pending map runs inside the shuffle-write tasks instead of
  // materializing an intermediate dataset. Under pipelined stages (the
  // RANKJOIN_PIPELINED_STAGES override) the fused write carries its own
  // label.
  bool fused_into_write = false;
  for (const auto& stage : ctx.metrics().stages()) {
    fused_into_write |= stage.fused_ops == "map+shuffleWrite" ||
                        stage.fused_ops == "map+shuffleWrite(pipelined)";
  }
  EXPECT_TRUE(fused_into_write);
}

TEST(LazyTest, MaterializedElementsCounted) {
  Context ctx(SmallCluster());
  ctx.metrics().Clear();
  Parallelize(&ctx, Iota(50), 4)
      .Filter([](const int& x) { return x < 10; }, "small")
      .Collect();
  uint64_t filter_stage_elements = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.fused_ops == "filter") {
      filter_stage_elements = stage.materialized_elements;
    }
  }
  EXPECT_EQ(filter_stage_elements, 10u);
  // The filter output only: the source is split on the driver and
  // records no stage.
  EXPECT_EQ(ctx.metrics().TotalMaterializedElements(), 10u);
}

TEST(ExplainTest, PendingChainRendersWithoutForcing) {
  Context ctx(SmallCluster());
  auto chained = Parallelize(&ctx, Iota(10), 2)
                     .Map([](const int& x) { return x * 2; }, "double")
                     .Filter([](const int& x) { return x > 5; }, "big");
  const std::string dot = chained.ExplainDot();
  // Rendering is driver-side only: the chain must still be pending.
  EXPECT_FALSE(chained.materialized());
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("parallelize"), std::string::npos);
  EXPECT_NE(dot.find("map"), std::string::npos);
  EXPECT_NE(dot.find("double"), std::string::npos);
  EXPECT_NE(dot.find("filter"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(ExplainTest, WideOpsAppearInPlan) {
  Context ctx(SmallCluster());
  auto keyed = Parallelize(&ctx, Iota(30), 3).Map(
      [](const int& x) { return std::pair<int, int>(x % 5, x); }, "key");
  auto grouped = GroupByKey(keyed, 3, "byMod");
  grouped.Force();
  const std::string dot = grouped.ExplainDot();
  // Shuffle boundary (doubled box), its user name and the group-side
  // narrow step show up, one edge per op up the chain; the root is
  // materialized.
  EXPECT_NE(dot.find("partitionBy"), std::string::npos);
  EXPECT_NE(dot.find("byMod"), std::string::npos);
  EXPECT_NE(dot.find("byMod/group"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  EXPECT_NE(dot.find("[materialized]"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n0;\n  n2 -> n1;\n  n3 -> n2;\n}"),
            std::string::npos);
}

}  // namespace
}  // namespace rankjoin::minispark

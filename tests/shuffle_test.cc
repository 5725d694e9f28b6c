#include "minispark/shuffle.h"

#include <gtest/gtest.h>

#include <cstdlib>
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

TEST(ShuffleSpillTest, ShuffleAndGroupIdenticalWithTinyBudget) {
  auto run = [](Context* ctx) {
    std::vector<std::pair<int, std::string>> both = KeyedRecords(800);
    const std::vector<std::pair<int, std::string>> more = KeyedRecords(900);
    both.insert(both.end(), more.begin(), more.end());
    auto placed =
        PartitionByKey(Parallelize(ctx, std::move(both), 9), 8, "spillBoth")
            .Collect();
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

/// A spilling cluster with barrier stages, whatever the environment
/// says (with the ScopedEnv of each test below). Under pipelined stages
/// a job this small spills only when its readers drain the published
/// runs more slowly than the writers fill them, so the spill assertions
/// would depend on timing. pipelined_test and the engine-configuration
/// oracle check the pair sets under pipelined stages.
Context::Options BarrierSpillCluster(uint64_t budget) {
  Context::Options options = SpillCluster(budget);
  options.pipelined_stages = false;
  return options;
}

TEST(PipelineSpillTest, AllRankingPipelinesIdenticalUnderSpill) {
  const rankjoin::testutil::ScopedEnv barrier{"RANKJOIN_PIPELINED_STAGES",
                                              nullptr};
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

    Context spill_ctx(BarrierSpillCluster(2048));
    auto spilled = RunSimilarityJoin(&spill_ctx, ds, config);
    ASSERT_TRUE(spilled.ok()) << AlgorithmName(algorithm);

    EXPECT_EQ(spilled->pairs, resident->pairs) << AlgorithmName(algorithm);
    EXPECT_GT(spill_ctx.metrics().TotalSpilledBytes(), 0u)
        << AlgorithmName(algorithm);
  }
}

TEST(PipelineSpillTest, JaccardPipelinesIdenticalUnderSpill) {
  const rankjoin::testutil::ScopedEnv barrier{"RANKJOIN_PIPELINED_STAGES",
                                              nullptr};
  const RankingDataset ds = SmallSkewedDataset(78, 250);
  JaccardJoinOptions options;
  options.theta = 0.3;

  Context vj_resident(TestCluster());
  Context vj_spill(BarrierSpillCluster(2048));
  auto vj_a = RunJaccardVjJoin(&vj_resident, ds, options);
  auto vj_b = RunJaccardVjJoin(&vj_spill, ds, options);
  ASSERT_TRUE(vj_a.ok() && vj_b.ok());
  EXPECT_EQ(vj_b->pairs, vj_a->pairs);
  EXPECT_GT(vj_spill.metrics().TotalSpilledBytes(), 0u);

  Context cl_resident(TestCluster());
  Context cl_spill(BarrierSpillCluster(2048));
  auto cl_a = RunJaccardClusterJoin(&cl_resident, ds, options);
  auto cl_b = RunJaccardClusterJoin(&cl_spill, ds, options);
  ASSERT_TRUE(cl_a.ok() && cl_b.ok());
  EXPECT_EQ(cl_b->pairs, cl_a->pairs);
  EXPECT_GT(cl_spill.metrics().TotalSpilledBytes(), 0u);
}

}  // namespace
}  // namespace rankjoin::minispark

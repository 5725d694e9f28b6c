#include "join/repartition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::TestCluster;

/// Builds posting groups (one per item) over a generated dataset, the
/// way the VJ pipeline would, against a stable backing vector.
struct GroupsFixture {
  RankingDataset dataset;
  JoinStore store;
  std::vector<PostingGroup> group_vec;
  LocalJoinOptions options;

  explicit GroupsFixture(uint64_t seed, double theta = 0.3) {
    dataset = testutil::SmallSkewedDataset(seed, 250);
    ItemOrder order =
        ItemOrder::FromFrequencies(CountItemFrequencies(dataset.rankings));
    store = JoinStore::Build(dataset.store(), order);
    options.store = &store;
    options.raw_theta = RawThreshold(theta, dataset.k);
    options.position_filter = true;

    std::unordered_map<ItemId, std::vector<PrefixPosting>> index;
    for (RowIndex row = 0; row < store.size(); ++row) {
      for (const auto& [item, posting] :
           EmitPrefix(store, row, options.raw_theta, PrefixMode::kOverlap)) {
        index[item].push_back(posting);
      }
    }
    for (auto& [item, postings] : index) {
      group_vec.push_back({item, std::move(postings)});
    }
  }

  minispark::Dataset<PostingGroup> MakeDataset(minispark::Context* ctx) {
    return minispark::Parallelize(ctx, group_vec, 8);
  }

  LocalJoinFn JoinFn() {
    LocalJoinOptions captured = options;
    return [captured](const std::vector<PrefixPosting>& group,
                      std::vector<ScoredPair>* out, JoinStats* stats) {
      LocalNestedLoopJoin(group, captured, out, stats);
    };
  }

  LocalRsJoinFn RsFn() {
    LocalJoinOptions captured = options;
    return [captured](const std::vector<PrefixPosting>& left,
                      const std::vector<PrefixPosting>& right,
                      std::vector<ScoredPair>* out, JoinStats* stats) {
      LocalNestedLoopJoinRS(left, right, captured, out, stats);
    };
  }
};

std::set<ResultPair> Dedup(const std::vector<ScoredPair>& scored) {
  std::set<ResultPair> out;
  for (const ScoredPair& sp : scored) out.insert(sp.first);
  return out;
}

TEST(RepartitionTest, DeltaZeroEqualsPlainJoin) {
  GroupsFixture fx(400);
  minispark::Context ctx(TestCluster());
  JoinStats s1, s2;
  auto plain = JoinGroups(fx.MakeDataset(&ctx), fx.JoinFn(), &s1);
  auto repartitioned = JoinGroupsWithRepartitioning(
      fx.MakeDataset(&ctx), 0, 8, fx.JoinFn(), fx.RsFn(), &s2);
  EXPECT_EQ(Dedup(plain.Collect()), Dedup(repartitioned));
  EXPECT_EQ(s2.lists_repartitioned, 0u);
}

TEST(RepartitionTest, ResultsIdenticalAcrossDeltas) {
  GroupsFixture fx(401);
  minispark::Context ctx(TestCluster());
  JoinStats base_stats;
  std::set<ResultPair> expected =
      Dedup(JoinGroups(fx.MakeDataset(&ctx), fx.JoinFn(), &base_stats)
                .Collect());
  for (uint64_t delta : {2u, 5u, 17u, 64u, 100000u}) {
    JoinStats stats;
    auto result = JoinGroupsWithRepartitioning(
        fx.MakeDataset(&ctx), delta, 8, fx.JoinFn(), fx.RsFn(), &stats);
    EXPECT_EQ(Dedup(result), expected) << "delta " << delta;
  }
}

TEST(RepartitionTest, CountsSplitLists) {
  GroupsFixture fx(402);
  minispark::Context ctx(TestCluster());
  // Find a delta below the largest list size so something splits.
  size_t max_list = 0;
  for (const auto& g : fx.group_vec) {
    max_list = std::max(max_list, g.second.size());
  }
  ASSERT_GT(max_list, 2u);
  const uint64_t delta = max_list / 2;
  JoinStats stats;
  JoinGroupsWithRepartitioning(fx.MakeDataset(&ctx), delta, 8, fx.JoinFn(),
                               fx.RsFn(), &stats);
  EXPECT_GT(stats.lists_repartitioned, 0u);
  EXPECT_GT(stats.chunk_pair_joins, 0u);
}

TEST(RepartitionTest, SplitListsRunNoUnionStage) {
  // The pairs of the unsplit lists and of the chunk joins are read on
  // the driver where their stages left them: no stage copies them into
  // a union first.
  GroupsFixture fx(405);
  minispark::Context ctx(TestCluster());
  size_t max_list = 0;
  for (const auto& g : fx.group_vec) {
    max_list = std::max(max_list, g.second.size());
  }
  ASSERT_GT(max_list, 2u);
  JoinStats plain;
  const std::set<ResultPair> expected =
      Dedup(JoinGroups(fx.MakeDataset(&ctx), fx.JoinFn(), &plain).Collect());
  ctx.metrics().Clear();
  JoinStats stats;
  const std::vector<ScoredPair> pairs = JoinGroupsWithRepartitioning(
      fx.MakeDataset(&ctx), max_list / 2, 8, fx.JoinFn(), fx.RsFn(), &stats);
  EXPECT_GT(stats.lists_repartitioned, 0u);
  EXPECT_EQ(Dedup(pairs), expected);
  bool chunk_join_ran = false;
  for (const auto& stage : ctx.metrics().stages()) {
    chunk_join_ran |= stage.name == "repartition/chunkJoin";
    EXPECT_EQ(stage.name.find("repartition/union"), std::string::npos)
        << stage.name;
  }
  EXPECT_TRUE(chunk_join_ran);
}

TEST(RepartitionTest, HugeDeltaSplitsNothing) {
  GroupsFixture fx(403);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  JoinStats plain;
  const std::set<ResultPair> expected =
      Dedup(JoinGroups(fx.MakeDataset(&ctx), fx.JoinFn(), &plain).Collect());
  ctx.metrics().Clear();
  const std::set<ResultPair> got =
      Dedup(JoinGroupsWithRepartitioning(fx.MakeDataset(&ctx), 1u << 30, 8,
                                         fx.JoinFn(), fx.RsFn(), &stats));
  EXPECT_EQ(stats.lists_repartitioned, 0u);
  EXPECT_EQ(stats.chunk_pair_joins, 0u);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(stats.candidates, plain.candidates);
  // With no list over delta, the split, spread and chunk-join stages do
  // not run at all.
  for (const auto& stage : ctx.metrics().stages()) {
    EXPECT_NE(stage.name.rfind("repartition/", 0), 0u) << stage.name;
  }
}

TEST(RepartitionTest, ChunkPairCountMatchesFormula) {
  // A single list of size n with chunk capacity delta must produce
  // C(ceil(n/delta), 2) R-S joins, find the unsplit list's pairs, and
  // spread its work units over more than one partition.
  GroupsFixture fx(404, /*theta=*/0.6);
  minispark::Context ctx(TestCluster());
  // One group of exactly 10 postings: the head of the first list of at
  // least 10 whose head holds a qualifying pair (at theta 0.3 no head
  // of this dataset does).
  std::vector<PostingGroup> one_group;
  for (const auto& g : fx.group_vec) {
    if (g.second.size() < 10) continue;
    std::vector<PrefixPosting> head(g.second.begin(), g.second.begin() + 10);
    std::vector<ScoredPair> pairs;
    JoinStats probe;
    fx.JoinFn()(head, &pairs, &probe);
    if (!pairs.empty()) {
      one_group.push_back({g.first, std::move(head)});
      break;
    }
  }
  ASSERT_EQ(one_group.size(), 1u);
  JoinStats stats;
  std::vector<ScoredPair> split =
      JoinGroupsWithRepartitioning(minispark::Parallelize(&ctx, one_group, 2),
                                   3, 4, fx.JoinFn(), fx.RsFn(), &stats);
  // ceil(10/3) = 4 chunks -> C(4,2) = 6 R-S joins.
  EXPECT_EQ(stats.lists_repartitioned, 1u);
  EXPECT_EQ(stats.chunk_pair_joins, 6u);

  JoinStats plain_stats;
  std::vector<ScoredPair> plain =
      JoinGroupsWithRepartitioning(minispark::Parallelize(&ctx, one_group, 2),
                                   0, 4, fx.JoinFn(), fx.RsFn(), &plain_stats);
  ASSERT_FALSE(plain.empty());
  std::sort(split.begin(), split.end());
  std::sort(plain.begin(), plain.end());
  EXPECT_EQ(split, plain);

  // 4 self-join units plus 6 R-S units, keyed by (item, unit): no read
  // partition of the spread holds all 10.
  uint64_t largest = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.name == "repartition/spread/shuffle-read") {
      largest = stage.max_partition_size;
    }
  }
  EXPECT_GT(largest, 0u);
  EXPECT_LT(largest, 10u);
}

}  // namespace
}  // namespace rankjoin

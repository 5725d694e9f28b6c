#include "join/repartition.h"

#include <gtest/gtest.h>

#include <set>

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
  EXPECT_EQ(Dedup(plain.Collect()), Dedup(repartitioned.Collect()));
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
    EXPECT_EQ(Dedup(result.Collect()), expected) << "delta " << delta;
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

TEST(RepartitionTest, HugeDeltaSplitsNothing) {
  GroupsFixture fx(403);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  JoinGroupsWithRepartitioning(fx.MakeDataset(&ctx), 1u << 30, 8,
                               fx.JoinFn(), fx.RsFn(), &stats);
  EXPECT_EQ(stats.lists_repartitioned, 0u);
  EXPECT_EQ(stats.chunk_pair_joins, 0u);
}

TEST(RepartitionTest, ChunkPairCountMatchesFormula) {
  // A single list of size n with chunk capacity delta must produce
  // C(ceil(n/delta), 2) R-S joins.
  GroupsFixture fx(404);
  minispark::Context ctx(TestCluster());
  // Build one artificial group of exactly 10 postings.
  std::vector<PostingGroup> one_group;
  std::vector<PrefixPosting> postings(fx.group_vec[0].second.begin(),
                                      fx.group_vec[0].second.end());
  postings.resize(std::min<size_t>(postings.size(), 10));
  if (postings.size() < 10) {
    // Borrow postings from other groups to reach exactly 10.
    for (const auto& g : fx.group_vec) {
      for (const auto& p : g.second) {
        if (postings.size() >= 10) break;
        postings.push_back(p);
      }
    }
  }
  ASSERT_EQ(postings.size(), 10u);
  one_group.push_back({fx.group_vec[0].first, postings});
  auto ds = minispark::Parallelize(&ctx, one_group, 2);
  JoinStats stats;
  JoinGroupsWithRepartitioning(ds, 3, 4, fx.JoinFn(), fx.RsFn(), &stats);
  // ceil(10/3) = 4 chunks -> C(4,2) = 6 R-S joins.
  EXPECT_EQ(stats.lists_repartitioned, 1u);
  EXPECT_EQ(stats.chunk_pair_joins, 6u);
}

}  // namespace
}  // namespace rankjoin

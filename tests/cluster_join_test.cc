#include "join/cluster_join.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::PairSet;
using testutil::SmallSkewedDataset;
using testutil::TestCluster;
using testutil::Truth;

TEST(ClusterJoinTest, MatchesBruteForceAcrossThetas) {
  RankingDataset ds = SmallSkewedDataset(300);
  minispark::Context ctx(TestCluster());
  for (double theta : {0.1, 0.2, 0.3, 0.4}) {
    ClOptions options;
    options.theta = theta;
    options.theta_c = 0.03;
    auto result = RunClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, theta)) << "theta " << theta;
  }
}

TEST(ClusterJoinTest, MatchesBruteForceAcrossThetaC) {
  RankingDataset ds = SmallSkewedDataset(301);
  minispark::Context ctx(TestCluster());
  const double theta = 0.25;
  std::set<ResultPair> expected = Truth(ds, theta);
  for (double theta_c : {0.0, 0.01, 0.03, 0.05, 0.1}) {
    ClOptions options;
    options.theta = theta;
    options.theta_c = theta_c;
    auto result = RunClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), expected) << "theta_c " << theta_c;
  }
}

TEST(ClusterJoinTest, LargeThetaCStillCorrect) {
  // theta_c > theta/2 disables the trivial member-member shortcut and
  // forces verification; results must not change.
  RankingDataset ds = SmallSkewedDataset(302);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.2;
  options.theta_c = 0.15;  // 2*theta_c > theta
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.2));
}

TEST(ClusterJoinTest, SingletonOptimizationToggle) {
  RankingDataset ds = SmallSkewedDataset(303);
  minispark::Context ctx(TestCluster());
  for (bool opt : {true, false}) {
    ClOptions options;
    options.theta = 0.3;
    options.singleton_optimization = opt;
    auto result = RunClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3)) << "opt " << opt;
  }
}

TEST(ClusterJoinTest, TriangleShortcutToggle) {
  // Dense near-duplicate population so clusters with several members
  // exist and the shortcut actually fires.
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 300;
  generator.domain_size = 300;
  generator.near_duplicate_rate = 0.5;
  generator.max_perturbations = 1;
  generator.seed = 304;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  ClOptions with;
  with.theta = 0.3;
  ClOptions without = with;
  without.triangle_upper_shortcut = false;
  auto a = RunClusterJoin(&ctx, ds, with);
  auto b = RunClusterJoin(&ctx, ds, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(PairSet(a->pairs), PairSet(b->pairs));
  // The shortcut replaces verifications by direct emissions.
  EXPECT_GT(a->stats.emitted_unverified, 0u);
  EXPECT_LE(a->stats.verified, b->stats.verified);
}

TEST(ClusterJoinTest, WithoutPositionFilterStillCorrect) {
  RankingDataset ds = SmallSkewedDataset(305);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.2;
  options.position_filter = false;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.2));
}

TEST(ClusterJoinTest, ClpMatchesBruteForceForVariousDeltas) {
  RankingDataset ds = SmallSkewedDataset(306);
  minispark::Context ctx(TestCluster());
  for (uint64_t delta : {3u, 10u, 50u, 1000u}) {
    ClOptions options;
    options.theta = 0.3;
    options.repartition_delta = delta;
    auto result = RunClusterJoin(&ctx, ds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3)) << "delta " << delta;
  }
}

TEST(ClusterJoinTest, PhaseTimingsPopulated) {
  RankingDataset ds = SmallSkewedDataset(307);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.2;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.ordering_seconds, 0.0);
  EXPECT_GT(result->stats.clustering_seconds, 0.0);
  EXPECT_GT(result->stats.joining_seconds, 0.0);
  EXPECT_GT(result->stats.expansion_seconds, 0.0);
  EXPECT_GT(result->stats.clusters, 0u);
  EXPECT_GT(result->stats.singletons, 0u);
}

TEST(ClusterJoinTest, RejectsBadParameters) {
  RankingDataset ds = SmallSkewedDataset(308, 20);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.2;
  options.theta_c = 0.3;  // theta_c > theta
  EXPECT_FALSE(RunClusterJoin(&ctx, ds, options).ok());

  options.theta = 0.9;
  options.theta_c = 0.08;  // theta + 2*theta_c > 1
  EXPECT_FALSE(RunClusterJoin(&ctx, ds, options).ok());
}

TEST(ClusterJoinTest, WorksWithoutReordering) {
  RankingDataset ds = SmallSkewedDataset(309);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.25;
  options.reorder_by_frequency = false;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.25));
}

TEST(ClusterJoinTest, DenseNearDuplicateDataset) {
  // Heavy near-duplicate population: many multi-member clusters, which
  // stresses the expansion joins and the intra-cluster emission.
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 300;
  generator.domain_size = 400;
  generator.near_duplicate_rate = 0.6;
  generator.max_perturbations = 3;
  generator.seed = 310;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.3;
  options.theta_c = 0.05;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3));
  EXPECT_GT(result->stats.cluster_members, 0u);
}

TEST(ClusterJoinTest, SingletonPrefixCounterexample) {
  // Regression for the Algorithm 1 deviation documented in cluster.h /
  // DESIGN.md: with the paper's literal singleton prefix
  // get_prefix(theta), this instance loses the result pair (1, 2).
  //
  // cm (id 0) and cs (id 1) share items 10..16 at identical ranks and
  // differ in their three tail items, so d(cm, cs) = 12 — above
  // raw_theta = 11 but within the (m, s) threshold 14. The member m
  // (id 2) of cm's cluster is at distance 10 from cs: a true result
  // reachable only through the (cm, cs) centroid pair. The item
  // frequencies make the canonical prefixes of cm and cs disjoint when
  // cs only indexes get_prefix(theta) = 3 items.
  RankingDataset ds;
  ds.k = 10;
  ds.rankings = {
      Ranking(0, {10, 11, 12, 13, 14, 15, 16, 0, 1, 2}),  // cm
      Ranking(1, {10, 11, 12, 13, 14, 15, 16, 3, 4, 5}),  // cs (singleton)
      Ranking(2, {10, 11, 12, 13, 14, 15, 16, 0, 1, 5}),  // m < cm's cluster
  };
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.1;
  options.theta_c = 0.03;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.1));
  EXPECT_TRUE(PairSet(result->pairs).count(MakeResultPair(1, 2)));
}

TEST(ClusterJoinTest, SparseDatasetAllSingletons) {
  // Huge domain, no planted duplicates: clustering degenerates to all
  // singletons and CL must still find the (few) results.
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 200;
  generator.domain_size = 20000;
  generator.near_duplicate_rate = 0.0;
  generator.seed = 311;
  RankingDataset ds = GenerateDataset(generator);
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.3;
  auto result = RunClusterJoin(&ctx, ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PairSet(result->pairs), Truth(ds, 0.3));
  EXPECT_EQ(result->stats.clusters, 0u);
  EXPECT_EQ(result->stats.singletons, ds.size());
}

TEST(ClusterJoinTest, ExpansionRunsAsOneStage) {
  // A CL job runs the ordering (vj/itemFrequency, vj/canonicalize), the
  // clustering and centroid joins (shuffle write and read, group join
  // each), and the expansion: one fused pass over the unit indices of
  // R_j and the centroids. Parallelize records no stage.
  testutil::PinnedEnv env;
  minispark::Context ctx(TestCluster());
  ClOptions options;
  options.theta = 0.3;
  auto result = RunClusterJoin(&ctx, SmallSkewedDataset(40), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ctx.metrics().NumStages(), 9u);
  int expansions = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    EXPECT_EQ(stage.name.find("union"), std::string::npos) << stage.name;
    expansions += stage.name == "expand";
  }
  EXPECT_EQ(expansions, 1);
  EXPECT_EQ(ctx.metrics().stages().back().name, "expand");
}

}  // namespace
}  // namespace rankjoin

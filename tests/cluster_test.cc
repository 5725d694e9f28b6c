#include "join/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::SmallSkewedDataset;
using testutil::TestCluster;

struct ClusterFixture {
  RankingDataset dataset;
  /// Merge-join representation for the oracle distances (ids are dense,
  /// so ordered[id] is ranking `id`).
  std::vector<OrderedRanking> ordered;
  JoinStore store;

  explicit ClusterFixture(uint64_t seed, size_t n = 300)
      : ClusterFixture(SmallSkewedDataset(seed, n)) {}

  explicit ClusterFixture(RankingDataset ds) : dataset(std::move(ds)) {
    ItemOrder order =
        ItemOrder::FromFrequencies(CountItemFrequencies(dataset.rankings));
    ordered = MakeOrderedDataset(dataset.rankings, order);
    store = JoinStore::Build(dataset.store(), order);
  }

  internal::SelfJoinSpec Spec(double theta_c) const {
    internal::SelfJoinSpec spec;
    spec.raw_theta = RawThreshold(theta_c, dataset.k);
    spec.k = dataset.k;
    spec.num_partitions = 8;
    return spec;
  }
};

TEST(ClusteringPhaseTest, PairsAreWithinThetaC) {
  ClusterFixture fx(200);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  const double theta_c = 0.05;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(theta_c), &stats);
  const uint32_t raw = RawThreshold(theta_c, fx.dataset.k);
  for (const ClusterPair& cp : clustering.pairs) {
    EXPECT_LT(cp.centroid, cp.member);  // smaller id is the centroid
    EXPECT_LE(cp.distance, raw);
    EXPECT_EQ(FootruleDistance(fx.ordered[cp.centroid],
                               fx.ordered[cp.member]),
              cp.distance);
  }
}

/// Checks the one-role cluster formation against the brute-force
/// theta_c pairs: every ranking is exactly one of singleton, centroid or
/// member; a centroid is the smaller id of some pair and has members;
/// each member's centroid is its closest smaller-id partner (ties to the
/// smaller id); the singletons are the unpaired rankings plus the
/// centroids left without members.
void ExpectOneRolePerRanking(const ClusterFixture& fx,
                             const Clustering& clustering,
                             const JoinStats& stats, double theta_c) {
  const uint32_t raw = RawThreshold(theta_c, fx.dataset.k);
  const size_t n = fx.ordered.size();
  std::vector<bool> smaller_of_pair(n, false);
  std::vector<bool> has_partner(n, false);
  // (distance, id) of the closest smaller-id partner.
  std::vector<std::pair<uint32_t, RankingId>> closest(
      n, {std::numeric_limits<uint32_t>::max(), 0});
  for (RankingId a = 0; a < n; ++a) {
    for (RankingId b = a + 1; b < n; ++b) {
      const uint32_t d = FootruleDistance(fx.ordered[a], fx.ordered[b]);
      if (d > raw) continue;
      smaller_of_pair[a] = true;
      has_partner[a] = has_partner[b] = true;
      closest[b] = std::min(closest[b], std::make_pair(d, a));
    }
  }

  std::vector<int> roles(n, 0);
  std::set<RankingId> with_members;
  for (const ClusterPair& cp : clustering.pairs) {
    ++roles[cp.member];
    EXPECT_FALSE(smaller_of_pair[cp.member])
        << "centroid " << cp.member << " is a member of " << cp.centroid;
    EXPECT_EQ(std::make_pair(cp.distance, cp.centroid), closest[cp.member])
        << "member " << cp.member << " is not in its closest cluster";
    with_members.insert(cp.centroid);
  }
  for (RankingId id : clustering.centroids) {
    ++roles[id];
    EXPECT_TRUE(smaller_of_pair[id]) << "centroid " << id;
    EXPECT_TRUE(with_members.count(id)) << "centroid " << id << " is empty";
  }
  for (RankingId id : clustering.singletons) {
    ++roles[id];
    EXPECT_TRUE(!has_partner[id] ||
                (smaller_of_pair[id] && with_members.count(id) == 0))
        << "singleton " << id;
  }
  for (RankingId id = 0; id < n; ++id) {
    EXPECT_EQ(roles[id], 1) << "ranking " << id;
  }
  EXPECT_EQ(with_members, std::set<RankingId>(clustering.centroids.begin(),
                                              clustering.centroids.end()));
  EXPECT_EQ(stats.clusters, clustering.centroids.size());
  EXPECT_EQ(stats.singletons, clustering.singletons.size());
  EXPECT_EQ(stats.cluster_members, clustering.pairs.size());
}

TEST(ClusteringPhaseTest, OneRolePerRankingMatchesBruteForce) {
  for (const auto& [seed, theta_c] :
       std::vector<std::pair<uint64_t, double>>{{201, 0.05}, {202, 0.04}}) {
    SCOPED_TRACE(seed);
    ClusterFixture fx(seed);
    minispark::Context ctx(TestCluster());
    JoinStats stats;
    Clustering clustering =
        RunClusteringPhase(&ctx, fx.store, fx.Spec(theta_c), &stats);
    EXPECT_GT(clustering.pairs.size(), 0u);
    ExpectOneRolePerRanking(fx, clustering, stats, theta_c);
  }
}

TEST(ClusteringPhaseTest, IdenticalCliqueAtZeroThetaC) {
  // Rankings 0-4 are identical, 5 and 6 are not. Every clique pair is a
  // theta_c = 0 pair, so 0-3 are centroids, and 4 joins the smallest:
  // 1-3 are left without members and become singletons.
  RankingDataset ds;
  ds.k = 4;
  for (RankingId id = 0; id < 5; ++id) {
    ds.rankings.push_back(Ranking(id, {1, 2, 3, 4}));
  }
  ds.rankings.push_back(Ranking(5, {1, 2, 4, 3}));
  ds.rankings.push_back(Ranking(6, {7, 8, 9, 10}));
  ClusterFixture fx(std::move(ds));
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(0.0), &stats);
  ExpectOneRolePerRanking(fx, clustering, stats, 0.0);
  ASSERT_EQ(clustering.pairs.size(), 1u);
  EXPECT_EQ(clustering.pairs[0].centroid, 0u);
  EXPECT_EQ(clustering.pairs[0].member, 4u);
  EXPECT_EQ(clustering.pairs[0].distance, 0u);
  EXPECT_EQ(clustering.centroids, std::vector<RankingId>{0});
  EXPECT_EQ(std::set<RankingId>(clustering.singletons.begin(),
                                clustering.singletons.end()),
            (std::set<RankingId>{1, 2, 3, 5, 6}));
}

TEST(ClusteringPhaseTest, CentroidsAreFirstElements) {
  ClusterFixture fx(203);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(0.05), &stats);
  std::unordered_set<RankingId> centroid_set(
      clustering.centroids.begin(), clustering.centroids.end());
  for (const ClusterPair& cp : clustering.pairs) {
    EXPECT_TRUE(centroid_set.count(cp.centroid));
  }
}

// --- Centroid join (Algorithm 1 / Lemma 5.3) ---

struct CentroidJoinFixture : ClusterFixture {
  minispark::Context ctx{TestCluster()};
  JoinStats stats;
  Clustering clustering;
  double theta_c;

  CentroidJoinFixture(uint64_t seed, double tc) : ClusterFixture(seed),
                                                  theta_c(tc) {
    clustering = RunClusteringPhase(&ctx, store, Spec(theta_c), &stats);
  }

  CentroidJoinSpec JoinSpec(double theta, bool singleton_opt = true) {
    CentroidJoinSpec spec;
    spec.raw_theta = RawThreshold(theta, dataset.k);
    spec.raw_theta_c = RawThreshold(theta_c, dataset.k);
    spec.k = dataset.k;
    spec.num_partitions = 8;
    spec.singleton_optimization = singleton_opt;
    return spec;
  }
};

TEST(CentroidJoinTest, RespectsPerTypeThresholds) {
  CentroidJoinFixture fx(204, 0.03);
  CentroidJoinSpec spec = fx.JoinSpec(0.2);
  auto pairs = RunCentroidJoin(&fx.ctx, fx.store, fx.clustering.centroids,
                               fx.clustering.singletons, spec, &fx.stats);
  for (const CentroidPair& cp : pairs) {
    uint32_t bound;
    if (cp.ci_singleton && cp.cj_singleton) {
      bound = spec.raw_theta;
    } else if (cp.ci_singleton || cp.cj_singleton) {
      bound = spec.raw_theta + spec.raw_theta_c;
    } else {
      bound = spec.raw_theta + 2 * spec.raw_theta_c;
    }
    EXPECT_LE(cp.distance, bound);
    EXPECT_EQ(FootruleDistance(fx.ordered[cp.ci], fx.ordered[cp.cj]),
              cp.distance);
  }
}

TEST(CentroidJoinTest, FindsAllQualifyingCentroidPairs) {
  CentroidJoinFixture fx(205, 0.03);
  CentroidJoinSpec spec = fx.JoinSpec(0.2);
  auto pairs = RunCentroidJoin(&fx.ctx, fx.store, fx.clustering.centroids,
                               fx.clustering.singletons, spec, &fx.stats);
  std::set<ResultPair> found;
  for (const CentroidPair& cp : pairs) {
    found.insert(MakeResultPair(cp.ci, cp.cj));
  }
  // Reference: brute force over the centroid set with per-type bounds.
  std::unordered_set<RankingId> singleton_set(
      fx.clustering.singletons.begin(), fx.clustering.singletons.end());
  std::vector<RankingId> everyone = fx.clustering.centroids;
  everyone.insert(everyone.end(), fx.clustering.singletons.begin(),
                  fx.clustering.singletons.end());
  for (size_t i = 0; i < everyone.size(); ++i) {
    for (size_t j = i + 1; j < everyone.size(); ++j) {
      const RankingId a = everyone[i];
      const RankingId b = everyone[j];
      const bool sa = singleton_set.count(a) > 0;
      const bool sb = singleton_set.count(b) > 0;
      uint32_t bound = spec.raw_theta;
      if (!sa && !sb) {
        bound = spec.raw_theta + 2 * spec.raw_theta_c;
      } else if (!sa || !sb) {
        bound = spec.raw_theta + spec.raw_theta_c;
      }
      const bool qualifies =
          FootruleDistance(fx.ordered[a], fx.ordered[b]) <= bound;
      EXPECT_EQ(found.count(MakeResultPair(a, b)) > 0, qualifies)
          << a << "," << b;
    }
  }
}

TEST(CentroidJoinTest, SingletonOptimizationOffUsesUniformThreshold) {
  CentroidJoinFixture fx(206, 0.03);
  CentroidJoinSpec spec = fx.JoinSpec(0.2, /*singleton_opt=*/false);
  auto pairs = RunCentroidJoin(&fx.ctx, fx.store, fx.clustering.centroids,
                               fx.clustering.singletons, spec, &fx.stats);
  const uint32_t bound = spec.raw_theta + 2 * spec.raw_theta_c;
  for (const CentroidPair& cp : pairs) {
    EXPECT_LE(cp.distance, bound);
  }
  // The uniform threshold retrieves at least the pairs of the optimized
  // join (it may add ss/ms pairs between theta and theta + 2*theta_c).
  auto optimized =
      RunCentroidJoin(&fx.ctx, fx.store, fx.clustering.centroids,
                      fx.clustering.singletons, fx.JoinSpec(0.2), &fx.stats);
  EXPECT_GE(pairs.size(), optimized.size());
}

}  // namespace
}  // namespace rankjoin

#include "join/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

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

  explicit ClusterFixture(uint64_t seed, size_t n = 300) {
    dataset = SmallSkewedDataset(seed, n);
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

TEST(ClusteringPhaseTest, MatchesBruteForcePairs) {
  ClusterFixture fx(201);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  const double theta_c = 0.05;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(theta_c), &stats);
  std::set<ResultPair> found;
  for (const ClusterPair& cp : clustering.pairs) {
    found.insert(MakeResultPair(cp.centroid, cp.member));
  }
  EXPECT_EQ(found, testutil::Truth(fx.dataset, theta_c));
}

TEST(ClusteringPhaseTest, SingletonsHaveNoClosePartner) {
  ClusterFixture fx(202);
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  const double theta_c = 0.04;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(theta_c), &stats);
  const uint32_t raw = RawThreshold(theta_c, fx.dataset.k);
  std::unordered_set<RankingId> singleton_set(
      clustering.singletons.begin(), clustering.singletons.end());
  for (RankingId id : clustering.singletons) {
    for (const OrderedRanking& other : fx.ordered) {
      if (other.id == id) continue;
      EXPECT_GT(FootruleDistance(fx.ordered[id], other), raw);
    }
  }
  // Partition property: every ranking is a centroid, a member of some
  // pair, or a singleton.
  std::unordered_set<RankingId> covered = singleton_set;
  for (const ClusterPair& cp : clustering.pairs) {
    covered.insert(cp.centroid);
    covered.insert(cp.member);
  }
  EXPECT_EQ(covered.size(), fx.dataset.size());
  EXPECT_EQ(stats.singletons, clustering.singletons.size());
  EXPECT_EQ(stats.clusters, clustering.centroids.size());
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

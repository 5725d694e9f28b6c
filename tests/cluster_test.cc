#include "join/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
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
  /// Merge-join representation for the oracle distances, indexed by id
  /// (the ids are 0 .. n - 1 in any row order).
  std::vector<OrderedRanking> ordered;
  JoinStore store;

  explicit ClusterFixture(uint64_t seed, size_t n = 300)
      : ClusterFixture(SmallSkewedDataset(seed, n)) {}

  explicit ClusterFixture(RankingDataset ds) : dataset(std::move(ds)) {
    ItemOrder order =
        ItemOrder::FromFrequencies(CountItemFrequencies(dataset.rankings));
    ordered.resize(dataset.rankings.size());
    for (OrderedRanking& o : MakeOrderedDataset(dataset.rankings, order)) {
      ordered[o.id] = std::move(o);
    }
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

/// Checks the leader clustering against the brute-force theta_c pairs:
/// every ranking is exactly one of singleton, centroid or member; every
/// member is a theta_c partner of its centroid, at the recorded distance,
/// with a larger id; every centroid has a member; every partner of a
/// singleton was claimed before the singleton's turn, by a centroid of
/// smaller id; and the clustering equals a replay of the id-order rule.
void ExpectLeaderClustering(const ClusterFixture& fx,
                            const Clustering& clustering,
                            const JoinStats& stats, double theta_c) {
  const uint32_t raw = RawThreshold(theta_c, fx.dataset.k);
  const size_t n = fx.ordered.size();
  // partners[a]: (b, distance) of every theta_c pair of a.
  std::vector<std::vector<std::pair<RankingId, uint32_t>>> partners(n);
  for (RankingId a = 0; a < n; ++a) {
    for (RankingId b = a + 1; b < n; ++b) {
      const uint32_t d = FootruleDistance(fx.ordered[a], fx.ordered[b]);
      if (d > raw) continue;
      partners[a].push_back({b, d});
      partners[b].push_back({a, d});
    }
  }

  constexpr RankingId kNone = std::numeric_limits<RankingId>::max();
  std::vector<int> roles(n, 0);
  std::vector<RankingId> centroid_of(n, kNone);
  std::set<RankingId> with_members;
  for (const ClusterPair& cp : clustering.pairs) {
    ++roles[cp.member];
    centroid_of[cp.member] = cp.centroid;
    with_members.insert(cp.centroid);
    EXPECT_LT(cp.centroid, cp.member) << "member " << cp.member;
    EXPECT_LE(cp.distance, raw) << "member " << cp.member;
    EXPECT_EQ(FootruleDistance(fx.ordered[cp.centroid],
                               fx.ordered[cp.member]),
              cp.distance)
        << "member " << cp.member;
  }
  for (RankingId id : clustering.centroids) {
    ++roles[id];
    EXPECT_TRUE(with_members.count(id)) << "centroid " << id << " is empty";
  }
  for (RankingId id : clustering.singletons) {
    ++roles[id];
    for (const auto& [partner, d] : partners[id]) {
      EXPECT_LT(centroid_of[partner], id)
          << "singleton " << id << " had partner " << partner
          << " unassigned at its turn";
    }
  }
  for (RankingId id = 0; id < n; ++id) {
    EXPECT_EQ(roles[id], 1) << "ranking " << id;
  }
  EXPECT_EQ(with_members, std::set<RankingId>(clustering.centroids.begin(),
                                              clustering.centroids.end()));

  // The rule replayed: in id order, an unassigned ranking claims its
  // unassigned partners.
  std::vector<bool> assigned(n, false);
  std::set<std::tuple<RankingId, RankingId, uint32_t>> want_pairs;
  std::set<RankingId> want_centroids;
  std::set<RankingId> want_singletons;
  for (RankingId id = 0; id < n; ++id) {
    if (assigned[id]) continue;
    assigned[id] = true;
    bool claimed = false;
    for (const auto& [partner, d] : partners[id]) {
      if (assigned[partner]) continue;
      assigned[partner] = true;
      want_pairs.insert({id, partner, d});
      claimed = true;
    }
    (claimed ? want_centroids : want_singletons).insert(id);
  }
  std::set<std::tuple<RankingId, RankingId, uint32_t>> got_pairs;
  for (const ClusterPair& cp : clustering.pairs) {
    got_pairs.insert({cp.centroid, cp.member, cp.distance});
  }
  EXPECT_EQ(got_pairs, want_pairs);
  EXPECT_EQ(std::set<RankingId>(clustering.centroids.begin(),
                                clustering.centroids.end()),
            want_centroids);
  EXPECT_EQ(std::set<RankingId>(clustering.singletons.begin(),
                                clustering.singletons.end()),
            want_singletons);
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
    ExpectLeaderClustering(fx, clustering, stats, theta_c);
  }
}

/// Rankings 0-4 are identical, 5 and 6 are not: at theta_c = 0 the
/// clique is one 5-ranking cluster led by ranking 0. The rows are in
/// `row_ids` order.
void ExpectCliqueIsOneCluster(const std::vector<RankingId>& row_ids) {
  RankingDataset ds;
  ds.k = 4;
  for (RankingId id : row_ids) {
    if (id < 5) {
      ds.rankings.push_back(Ranking(id, {1, 2, 3, 4}));
    } else if (id == 5) {
      ds.rankings.push_back(Ranking(5, {1, 2, 4, 3}));
    } else {
      ds.rankings.push_back(Ranking(6, {7, 8, 9, 10}));
    }
  }
  ClusterFixture fx(std::move(ds));
  minispark::Context ctx(TestCluster());
  JoinStats stats;
  Clustering clustering =
      RunClusteringPhase(&ctx, fx.store, fx.Spec(0.0), &stats);
  ExpectLeaderClustering(fx, clustering, stats, 0.0);
  EXPECT_EQ(clustering.centroids, std::vector<RankingId>{0});
  std::set<RankingId> members;
  for (const ClusterPair& cp : clustering.pairs) {
    EXPECT_EQ(cp.centroid, 0u);
    EXPECT_EQ(cp.distance, 0u);
    members.insert(cp.member);
  }
  EXPECT_EQ(clustering.pairs.size(), 4u);
  EXPECT_EQ(members, (std::set<RankingId>{1, 2, 3, 4}));
  EXPECT_EQ(std::set<RankingId>(clustering.singletons.begin(),
                                clustering.singletons.end()),
            (std::set<RankingId>{5, 6}));
}

TEST(ClusteringPhaseTest, IdenticalCliqueAtZeroThetaC) {
  ExpectCliqueIsOneCluster({0, 1, 2, 3, 4, 5, 6});
}

TEST(ClusteringPhaseTest, LeaderRuleVisitsIdsNotRows) {
  // The same rankings with the rows in descending id order: the leader
  // is still the smallest id.
  ExpectCliqueIsOneCluster({6, 5, 4, 3, 2, 1, 0});
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
  const std::unordered_set<RankingId> singletons(
      fx.clustering.singletons.begin(), fx.clustering.singletons.end());
  for (const CentroidPair& cp : pairs) {
    const bool ci_singleton = singletons.count(cp.ci) > 0;
    const bool cj_singleton = singletons.count(cp.cj) > 0;
    uint32_t bound;
    if (ci_singleton && cj_singleton) {
      bound = spec.raw_theta;
    } else if (ci_singleton || cj_singleton) {
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

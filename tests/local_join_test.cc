#include "join/local_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "join/cluster.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

/// Builds a posting group whose rankings all contain item 0 (the group
/// key), with random tails. Under the identity order item 0 is every
/// ranking's first canonical item, so it is in every prefix — the
/// invariant the pipelines' groups have.
struct GroupFixture {
  RankingDataset dataset;
  JoinStore store;
  std::vector<PrefixPosting> group;

  /// With `near_copies`, every third ranking is the one before it with
  /// two adjacent ranks swapped, so that pairs qualify at every
  /// threshold.
  GroupFixture(int n, int k, uint32_t domain, uint64_t seed,
               Distance distance = Distance::kFootrule,
               bool near_copies = false) {
    Rng rng(seed);
    dataset.k = k;
    for (int i = 0; i < n; ++i) {
      std::vector<ItemId> items{0};  // shared key item
      if (near_copies && i % 3 == 2) {
        items = dataset.rankings.back().items();
        const size_t r = rng.Uniform(static_cast<uint64_t>(k - 1));
        std::swap(items[r], items[r + 1]);
      }
      while (static_cast<int>(items.size()) < k) {
        ItemId candidate = static_cast<ItemId>(1 + rng.Uniform(domain));
        if (std::find(items.begin(), items.end(), candidate) == items.end()) {
          items.push_back(candidate);
        }
      }
      if (!near_copies || i % 3 != 2) rng.Shuffle(items);
      dataset.rankings.emplace_back(static_cast<RankingId>(i), items);
    }
    store = JoinStore::Build(dataset.store(), ItemOrder(), distance);
    for (RowIndex row = 0; row < store.size(); ++row) {
      const int key_rank = dataset.rankings[row].RankOf(0);
      group.push_back(
          PrefixPosting{row, static_cast<uint16_t>(key_rank), false});
    }
  }

  /// The position filter applies to Footrule only: sets have no ranks.
  LocalJoinOptions Options(uint32_t raw_theta) const {
    LocalJoinOptions options;
    options.store = &store;
    options.raw_theta = raw_theta;
    options.position_filter = store.kernel().weight(0) > 1;
    return options;
  }
};

/// The brute-force distance of two rankings under `distance`: Footrule,
/// or Jaccard's raw |A xor B| = 2(k - overlap).
uint32_t ReferenceDistance(const Ranking& a, const Ranking& b,
                           Distance distance) {
  if (distance == Distance::kFootrule) return FootruleDistance(a, b);
  int overlap = 0;
  for (ItemId item : a.items()) overlap += b.RankOf(item) >= 0;
  return static_cast<uint32_t>(2 * (a.k() - overlap));
}

std::set<ResultPair> GroundTruth(const GroupFixture& fx, uint32_t raw_theta,
                                 Distance distance = Distance::kFootrule) {
  std::set<ResultPair> expected;
  const std::vector<Ranking>& rankings = fx.dataset.rankings;
  for (size_t i = 0; i < rankings.size(); ++i) {
    for (size_t j = i + 1; j < rankings.size(); ++j) {
      if (ReferenceDistance(rankings[i], rankings[j], distance) <=
          raw_theta) {
        expected.insert(MakeResultPair(rankings[i].id(), rankings[j].id()));
      }
    }
  }
  return expected;
}

std::set<ResultPair> PairsOf(const std::vector<ScoredPair>& scored) {
  std::set<ResultPair> out;
  for (const ScoredPair& sp : scored) out.insert(sp.first);
  return out;
}

TEST(LocalNestedLoopJoinTest, MatchesGroundTruth) {
  const int k = 10;
  GroupFixture fx(60, k, 30, 42);
  const uint32_t raw_theta = RawThreshold(0.3, k);
  JoinStats stats;
  std::vector<ScoredPair> out;
  LocalNestedLoopJoin(fx.group, fx.Options(raw_theta), &out, &stats);
  EXPECT_EQ(PairsOf(out), GroundTruth(fx, raw_theta));
  // The group runs in (x, y) buckets, which hold fewer pairs than it.
  EXPECT_LT(stats.candidates, 60u * 59u / 2u);
  EXPECT_EQ(stats.verify_passed, out.size());
}

TEST(LocalNestedLoopJoinTest, DistancesAreCorrect) {
  const int k = 10;
  GroupFixture fx(30, k, 25, 43);
  const uint32_t raw_theta = RawThreshold(0.4, k);
  JoinStats stats;
  std::vector<ScoredPair> out;
  LocalNestedLoopJoin(fx.group, fx.Options(raw_theta), &out, &stats);
  for (const ScoredPair& sp : out) {
    EXPECT_EQ(FootruleDistance(fx.dataset.rankings[sp.first.first],
                               fx.dataset.rankings[sp.first.second]),
              sp.second);
  }
}

TEST(LocalPrefixJoinTest, MatchesGroundTruth) {
  // Every member holds the key item in its prefix, so the pair loop sees
  // every pair (or, in (x, y) buckets, every pair that shares a second
  // key item); the key-rank position filter only drops pairs that cannot
  // qualify.
  const int k = 10;
  for (uint64_t seed : {1u, 2u, 3u}) {
    GroupFixture fx(50, k, 20, seed);
    for (double theta : {0.05, 0.1, 0.2, 0.3, 0.4}) {
      const uint32_t raw_theta = RawThreshold(theta, k);
      JoinStats stats;
      std::vector<ScoredPair> out;
      LocalPrefixJoin(fx.group, fx.Options(raw_theta), &out, &stats);
      EXPECT_EQ(PairsOf(out), GroundTruth(fx, raw_theta)) << theta;
      EXPECT_LE(stats.candidates, 50u * 49u / 2u);
      EXPECT_EQ(stats.candidates,
                stats.position_filtered + stats.signature_filtered +
                    stats.repeat_pairs + stats.verified);
      EXPECT_EQ(stats.verify_passed, out.size());
      for (const ScoredPair& sp : out) {
        EXPECT_EQ(FootruleDistance(fx.dataset.rankings[sp.first.first],
                                   fx.dataset.rankings[sp.first.second]),
                  sp.second);
      }
    }
  }
}

TEST(LocalJoinTest, PositionFilterOnlyPrunes) {
  const int k = 10;
  GroupFixture fx(50, k, 25, 11);
  const uint32_t raw_theta = RawThreshold(0.1, k);
  LocalJoinOptions with = fx.Options(raw_theta);
  LocalJoinOptions without = with;
  without.position_filter = false;
  for (bool prefix_join : {false, true}) {
    JoinStats s1, s2;
    std::vector<ScoredPair> a, b;
    if (prefix_join) {
      LocalPrefixJoin(fx.group, with, &a, &s1);
      LocalPrefixJoin(fx.group, without, &b, &s2);
    } else {
      LocalNestedLoopJoin(fx.group, with, &a, &s1);
      LocalNestedLoopJoin(fx.group, without, &b, &s2);
    }
    EXPECT_EQ(PairsOf(a), PairsOf(b));
    EXPECT_GT(s1.position_filtered, 0u);
    EXPECT_EQ(s2.position_filtered, 0u);
    // The filter saves distance decisions (verified or ruled out by
    // the signature bound).
    EXPECT_LT(s1.verified + s1.signature_filtered,
              s2.verified + s2.signature_filtered);
  }
}

TEST(LocalJoinTest, EmptyAndTinyGroups) {
  GroupFixture fx(1, 10, 20, 3);
  JoinStats stats;
  std::vector<ScoredPair> out;
  std::vector<PrefixPosting> empty;
  LocalJoinOptions options = fx.Options(10);
  LocalNestedLoopJoin(empty, options, &out, &stats);
  LocalPrefixJoin(empty, options, &out, &stats);
  LocalNestedLoopJoin(fx.group, options, &out, &stats);
  LocalPrefixJoin(fx.group, options, &out, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.candidates, 0u);
}

TEST(LocalRsJoinTest, ChunkedEqualsWhole) {
  // Splitting a group into two chunks and combining self-joins with the
  // R-S join must reproduce the whole group's result (the Algorithm 3
  // correctness argument).
  const int k = 10;
  GroupFixture fx(60, k, 25, 13);
  const uint32_t raw_theta = RawThreshold(0.3, k);
  LocalJoinOptions options = fx.Options(raw_theta);

  std::vector<PrefixPosting> left(fx.group.begin(), fx.group.begin() + 30);
  std::vector<PrefixPosting> right(fx.group.begin() + 30, fx.group.end());

  JoinStats stats;
  std::vector<ScoredPair> combined;
  LocalNestedLoopJoin(left, options, &combined, &stats);
  LocalNestedLoopJoin(right, options, &combined, &stats);
  LocalNestedLoopJoinRS(left, right, options, &combined, &stats);

  EXPECT_EQ(PairsOf(combined), GroundTruth(fx, raw_theta));
}

TEST(LocalRsJoinTest, SkipsSelfPairs) {
  const int k = 10;
  GroupFixture fx(10, k, 25, 17);
  LocalJoinOptions options = fx.Options(MaxFootrule(k) - 1);
  JoinStats stats;
  std::vector<ScoredPair> out;
  // Same postings on both sides: no (x, x) pairs may be emitted.
  LocalNestedLoopJoinRS(fx.group, fx.group, options, &out, &stats);
  for (const ScoredPair& sp : out) {
    EXPECT_NE(sp.first.first, sp.first.second);
  }
}

// ---------------------------------------------------------------------
// (x, y) buckets. Groups of at least kMinBucketedGroup postings pair only
// the postings that share a second key item where every qualifying pair
// shares two items (SharesTwoItems): for Footrule below raw theta
// k(k - 1), for Jaccard below 2k - 2. Each join must return exactly the
// brute-force pairs, each once, below the bound, at it (where the plain
// loop runs) and at 0.1 and 0.3 of the largest distance.
// ---------------------------------------------------------------------

constexpr int kBucketGroup =
    2 * static_cast<int>(local_join_internal::kMinBucketedGroup) + 9;

struct BucketCase {
  int k;
  Distance distance;
};

constexpr BucketCase kBucketCases[] = {
    {10, Distance::kFootrule}, {25, Distance::kFootrule},
    {10, Distance::kJaccard}};

std::string Describe(const BucketCase& c, uint32_t raw_theta) {
  return std::string(c.distance == Distance::kJaccard ? "jaccard" : "footrule") +
         " k " + std::to_string(c.k) + " raw theta " +
         std::to_string(raw_theta);
}

/// 0.1 and 0.3 of the largest distance, and the applicability bound
/// minus one and itself.
std::vector<uint32_t> BucketThetas(const BucketCase& c) {
  const uint32_t k = static_cast<uint32_t>(c.k);
  const bool footrule = c.distance == Distance::kFootrule;
  const uint32_t max = footrule ? k * (k + 1) : 2 * k;
  const uint32_t bound = footrule ? k * (k - 1) : 2 * k - 2;
  return {max / 10, max * 3 / 10, bound - 1, bound};
}

/// Every candidate is position filtered, signature filtered, left to
/// another group or bucket before the kernel, or verified; every
/// emitted pair passed the kernel.
void ExpectCounterIdentity(const JoinStats& stats, size_t emitted,
                           const std::string& what) {
  EXPECT_EQ(stats.candidates, stats.position_filtered +
                                  stats.signature_filtered +
                                  stats.repeat_pairs + stats.verified)
      << what;
  EXPECT_EQ(stats.verify_passed, emitted) << what;
}

TEST(BucketedJoinTest, SelfJoinsMatchBruteForce) {
  for (const BucketCase& c : kBucketCases) {
    GroupFixture fx(kBucketGroup, c.k, 10 * c.k, 51, c.distance,
                    /*near_copies=*/true);
    const uint64_t n = fx.group.size();
    for (uint32_t raw_theta : BucketThetas(c)) {
      const std::string what = Describe(c, raw_theta);
      const bool bucketed = SharesTwoItems(fx.store.kernel(), raw_theta);
      EXPECT_EQ(bucketed, raw_theta != BucketThetas(c).back()) << what;
      const std::set<ResultPair> truth =
          GroundTruth(fx, raw_theta, c.distance);
      EXPECT_FALSE(truth.empty()) << what;
      for (bool prefix_join : {true, false}) {
        JoinStats stats;
        std::vector<ScoredPair> out;
        if (prefix_join) {
          LocalPrefixJoin(fx.group, fx.Options(raw_theta), &out, &stats);
        } else {
          LocalNestedLoopJoin(fx.group, fx.Options(raw_theta), &out, &stats);
        }
        EXPECT_EQ(PairsOf(out), truth) << what;
        EXPECT_EQ(out.size(), truth.size()) << what;
        ExpectCounterIdentity(stats, out.size(), what);
        // Just below the bound nearly every item is a sub-key, and the
        // group runs the plain loop when its buckets hold more pairs.
        if (raw_theta < BucketThetas(c)[2]) {
          EXPECT_LT(stats.candidates, n * (n - 1) / 2) << what;
        } else {
          EXPECT_LE(stats.candidates, n * (n - 1) / 2) << what;
        }
        if (!bucketed) {
          EXPECT_EQ(stats.candidates, n * (n - 1) / 2) << what;
        }
      }
    }
  }
}

TEST(BucketedJoinTest, MixedThresholdsMatchBruteForce) {
  // The centroid join's pair loop: every third posting is a singleton,
  // and a pair's threshold depends on how many singletons it holds.
  // Sub-keys are taken under the largest threshold.
  for (const BucketCase& c : kBucketCases) {
    GroupFixture fx(kBucketGroup, c.k, 10 * c.k, 52, c.distance,
                    /*near_copies=*/true);
    for (size_t i = 0; i < fx.group.size(); i += 3) {
      fx.group[i].singleton = true;
    }
    for (uint32_t raw_theta : BucketThetas(c)) {
      const std::string what = Describe(c, raw_theta);
      const MixedThresholds thresholds{raw_theta, raw_theta * 2 / 3,
                                       raw_theta / 3};
      std::set<ResultPair> truth;
      const std::vector<Ranking>& rankings = fx.dataset.rankings;
      for (size_t i = 0; i < rankings.size(); ++i) {
        for (size_t j = i + 1; j < rankings.size(); ++j) {
          if (ReferenceDistance(rankings[i], rankings[j], c.distance) <=
              thresholds(fx.group[i], fx.group[j])) {
            truth.insert(MakeResultPair(rankings[i].id(), rankings[j].id()));
          }
        }
      }
      JoinStats stats;
      std::vector<ScoredPair> out;
      NestedLoopJoin(fx.store, fx.group, thresholds,
                     fx.Options(raw_theta).position_filter, c.k, &out,
                     &stats);
      EXPECT_EQ(PairsOf(out), truth) << what;
      EXPECT_EQ(out.size(), truth.size()) << what;
      ExpectCounterIdentity(stats, out.size(), what);
    }
  }
}

TEST(BucketedJoinTest, ChunkPairsMatchBruteForce) {
  // NestedLoopJoinRS over two halves of a group, as CL-P's chunk pairs
  // run it: the cross pairs of the brute-force result.
  for (const BucketCase& c : kBucketCases) {
    GroupFixture fx(kBucketGroup, c.k, 10 * c.k, 53, c.distance,
                    /*near_copies=*/true);
    const size_t half = fx.group.size() / 2;
    const std::vector<PrefixPosting> left(fx.group.begin(),
                                          fx.group.begin() + half);
    const std::vector<PrefixPosting> right(fx.group.begin() + half,
                                           fx.group.end());
    for (uint32_t raw_theta : BucketThetas(c)) {
      const std::string what = Describe(c, raw_theta);
      std::set<ResultPair> truth;
      for (const ResultPair& p : GroundTruth(fx, raw_theta, c.distance)) {
        if ((p.first < half) != (p.second < half)) truth.insert(p);
      }
      JoinStats stats;
      std::vector<ScoredPair> out;
      LocalNestedLoopJoinRS(left, right, fx.Options(raw_theta), &out,
                            &stats);
      EXPECT_EQ(PairsOf(out), truth) << what;
      EXPECT_EQ(out.size(), truth.size()) << what;
      ExpectCounterIdentity(stats, out.size(), what);
      if (raw_theta < BucketThetas(c)[2]) {
        EXPECT_LT(stats.candidates, left.size() * right.size()) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Counter contract: the pair loops' counters over the posting groups the
// VJ pipeline builds with the rank-weighted prefix (EmitPrefix), the
// large ones in (x, y) buckets. Any change to the prefix rule, the
// sub-key rule, the group size that buckets, the position filter, the
// signature bound or the ownership rule shows here. Past the position
// filter the signature bound and then the ownership test (before the
// kernel) split the pairs into signature_filtered, repeat_pairs and
// verified, and verify_passed is the emitted pairs (one per distinct
// qualifying pair, checked against brute force).
// ---------------------------------------------------------------------

struct Counts {
  uint64_t candidates;
  uint64_t position_filtered;
  /// Pairs past the position filter: signature_filtered +
  /// repeat_pairs + verified.
  uint64_t decided;
  uint64_t signature_filtered;
  uint64_t verify_passed;
  uint64_t repeat_pairs;
};

struct PinnedCase {
  uint64_t seed;
  size_t n;
  int k;
  double theta;
  Counts prefix_join;
  Counts nested_loop;
};

// The groups of the n = 300 and 200 cases hold at most 13 postings and
// run the plain loop; the n = 3000 cases' largest groups (30 and 64
// postings) run in (x, y) buckets.
const PinnedCase kPinned[] = {
    {21, 300, 10, 0.05, {196, 97, 99, 59, 20, 4},
     {196, 97, 99, 59, 20, 4}},
    {21, 300, 10, 0.10, {318, 45, 273, 212, 27, 14},
     {318, 45, 273, 212, 27, 14}},
    {21, 300, 10, 0.20, {1156, 0, 1156, 1013, 62, 56},
     {1156, 0, 1156, 1013, 62, 56}},
    {21, 300, 10, 0.30, {1975, 0, 1975, 1687, 73, 98},
     {1975, 0, 1975, 1687, 73, 98}},
    {22, 200, 25, 0.05, {413, 32, 381, 269, 41, 41},
     {413, 32, 381, 269, 41, 41}},
    {22, 200, 25, 0.10, {1033, 0, 1033, 839, 64, 111},
     {1033, 0, 1033, 839, 64, 111}},
    {22, 200, 25, 0.20, {2920, 0, 2920, 2545, 80, 284},
     {2920, 0, 2920, 2545, 80, 284}},
    {22, 200, 25, 0.30, {5833, 0, 5833, 4670, 84, 591},
     {5833, 0, 5833, 4670, 84, 591}},
    {23, 300, 5, 0.05, {128, 90, 38, 31, 0, 0},
     {128, 90, 38, 31, 0, 0}},
    {23, 300, 5, 0.10, {192, 68, 124, 88, 17, 2},
     {192, 68, 124, 88, 17, 2}},
    {23, 300, 5, 0.20, {426, 35, 391, 296, 36, 11},
     {426, 35, 391, 296, 36, 11}},
    {23, 300, 5, 0.30, {667, 0, 667, 526, 45, 23},
     {667, 0, 667, 526, 45, 23}},
    {24, 3000, 10, 0.10, {26799, 5093, 21706, 20652, 441, 407},
     {26799, 5093, 21706, 20652, 441, 407}},
    {24, 3000, 10, 0.30, {21348, 0, 21348, 12803, 882, 4582},
     {21348, 0, 21348, 12803, 882, 4582}},
};

void ExpectCounts(const JoinStats& got, const Counts& want,
                  const std::string& what) {
  EXPECT_EQ(got.candidates, want.candidates) << what;
  EXPECT_EQ(got.position_filtered, want.position_filtered) << what;
  EXPECT_EQ(got.signature_filtered + got.repeat_pairs + got.verified,
            want.decided)
      << what;
  EXPECT_EQ(got.signature_filtered, want.signature_filtered) << what;
  EXPECT_EQ(got.verify_passed, want.verify_passed) << what;
  EXPECT_EQ(got.repeat_pairs, want.repeat_pairs) << what;
}

TEST(LocalJoinCountersTest, MatchPinnedValues) {
  for (const PinnedCase& c : kPinned) {
    RankingDataset ds = testutil::SmallSkewedDataset(c.seed, c.n, c.k);
    const ItemOrder order =
        ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
    const JoinStore store = JoinStore::Build(ds.store(), order);
    LocalJoinOptions options;
    options.store = &store;
    options.raw_theta = RawThreshold(c.theta, c.k);
    // The posting groups the VJ pipeline would build.
    std::map<ItemId, std::vector<PrefixPosting>> groups;
    for (RowIndex row = 0; row < store.size(); ++row) {
      for (const auto& [item, posting] :
           EmitPrefix(store, row, options.raw_theta, PrefixMode::kOverlap)) {
        groups[item].push_back(posting);
      }
    }
    JoinStats prefix_join;
    JoinStats nested_loop;
    std::vector<ScoredPair> prefix_out;
    std::vector<ScoredPair> nested_out;
    for (const auto& [item, group] : groups) {
      LocalPrefixJoin(group, options, &prefix_out, &prefix_join);
      LocalNestedLoopJoin(group, options, &nested_out, &nested_loop);
    }
    const std::string what = "seed " + std::to_string(c.seed) + " theta " +
                             std::to_string(c.theta);
    ExpectCounts(prefix_join, c.prefix_join, "prefix join, " + what);
    ExpectCounts(nested_loop, c.nested_loop, "nested loop, " + what);
    const std::set<ResultPair> truth = testutil::Truth(ds, c.theta);
    for (const auto& [stats, out] :
         {std::pair(&prefix_join, &prefix_out),
          std::pair(&nested_loop, &nested_out)}) {
      EXPECT_EQ(stats->verify_passed, truth.size()) << what;
      EXPECT_EQ(stats->candidates,
                stats->position_filtered + stats->signature_filtered +
                    stats->repeat_pairs + stats->verified)
          << what;
      std::vector<ResultPair> pairs;
      for (const ScoredPair& sp : *out) pairs.push_back(sp.first);
      EXPECT_EQ(testutil::PairSet(pairs), truth) << what;
    }
  }
}

}  // namespace
}  // namespace rankjoin

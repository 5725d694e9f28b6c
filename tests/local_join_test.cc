#include "join/local_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
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

  GroupFixture(int n, int k, uint32_t domain, uint64_t seed) {
    Rng rng(seed);
    dataset.k = k;
    for (int i = 0; i < n; ++i) {
      std::vector<ItemId> items{0};  // shared key item
      while (static_cast<int>(items.size()) < k) {
        ItemId candidate = static_cast<ItemId>(1 + rng.Uniform(domain));
        if (std::find(items.begin(), items.end(), candidate) == items.end()) {
          items.push_back(candidate);
        }
      }
      rng.Shuffle(items);
      dataset.rankings.emplace_back(static_cast<RankingId>(i), items);
    }
    store = JoinStore::Build(dataset.store(), ItemOrder());
    for (RowIndex row = 0; row < store.size(); ++row) {
      const int key_rank = dataset.rankings[row].RankOf(0);
      group.push_back(
          PrefixPosting{row, static_cast<uint16_t>(key_rank), false});
    }
  }

  LocalJoinOptions Options(uint32_t raw_theta) const {
    LocalJoinOptions options;
    options.store = &store;
    options.raw_theta = raw_theta;
    options.position_filter = true;
    return options;
  }
};

std::set<ResultPair> GroundTruth(const GroupFixture& fx, uint32_t raw_theta) {
  std::set<ResultPair> expected;
  const std::vector<Ranking>& rankings = fx.dataset.rankings;
  for (size_t i = 0; i < rankings.size(); ++i) {
    for (size_t j = i + 1; j < rankings.size(); ++j) {
      if (FootruleDistance(rankings[i], rankings[j]) <= raw_theta) {
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
  EXPECT_EQ(stats.candidates, 60u * 59u / 2u);
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
  // every pair; the prefix-item position filter only drops pairs that
  // cannot qualify.
  const int k = 10;
  for (uint64_t seed : {1u, 2u, 3u}) {
    GroupFixture fx(50, k, 20, seed);
    for (double theta : {0.05, 0.1, 0.2, 0.3, 0.4}) {
      const uint32_t raw_theta = RawThreshold(theta, k);
      JoinStats stats;
      std::vector<ScoredPair> out;
      LocalPrefixJoin(fx.group, fx.Options(raw_theta), &out, &stats);
      EXPECT_EQ(PairsOf(out), GroundTruth(fx, raw_theta)) << theta;
      EXPECT_EQ(stats.candidates, 50u * 49u / 2u);
      EXPECT_EQ(stats.candidates, stats.position_filtered +
                                      stats.signature_filtered +
                                      stats.verified);
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
// Counter contract: the pair loops' counters over the posting groups the
// VJ pipeline builds with the rank-weighted prefix (EmitPrefix). Any
// change to the prefix rule, the position filter, the signature bound
// or the ownership rule shows here. The signature bound splits the
// pairs that reach the distance decision into signature_filtered and
// verified, and the ownership rule splits verify_passed into the
// emitted pairs (one per distinct qualifying pair, checked against
// brute force) and repeat_pairs.
// ---------------------------------------------------------------------

struct Counts {
  uint64_t candidates;
  uint64_t position_filtered;
  /// Pairs past the position filter: signature_filtered + verified.
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

const PinnedCase kPinned[] = {
    {21, 300, 10, 0.05, {196, 97, 99, 59, 22, 2}, {196, 97, 99, 59, 22, 2}},
    {21, 300, 10, 0.10, {318, 45, 273, 212, 37, 10},
     {318, 45, 273, 212, 37, 10}},
    {21, 300, 10, 0.20, {1156, 0, 1156, 1013, 115, 53},
     {1156, 0, 1156, 1013, 115, 53}},
    {21, 300, 10, 0.30, {1975, 0, 1975, 1687, 163, 90},
     {1975, 0, 1975, 1687, 163, 90}},
    {22, 200, 25, 0.05, {413, 32, 381, 269, 77, 36},
     {413, 32, 381, 269, 77, 36}},
    {22, 200, 25, 0.10, {1033, 0, 1033, 839, 172, 108},
     {1033, 0, 1033, 839, 172, 108}},
    {22, 200, 25, 0.20, {2920, 0, 2920, 2545, 361, 281},
     {2920, 0, 2920, 2545, 361, 281}},
    {22, 200, 25, 0.30, {5833, 0, 5833, 4670, 557, 473},
     {5833, 0, 5833, 4670, 557, 473}},
    {23, 300, 5, 0.05, {128, 90, 38, 31, 0, 0}, {128, 90, 38, 31, 0, 0}},
    {23, 300, 5, 0.10, {192, 68, 124, 88, 17, 0},
     {192, 68, 124, 88, 17, 0}},
    {23, 300, 5, 0.20, {426, 36, 390, 295, 46, 10},
     {426, 35, 391, 296, 46, 10}},
    {23, 300, 5, 0.30, {667, 0, 667, 526, 68, 23},
     {667, 0, 667, 526, 68, 23}},
};

void ExpectCounts(const JoinStats& got, const Counts& want,
                  const std::string& what) {
  EXPECT_EQ(got.candidates, want.candidates) << what;
  EXPECT_EQ(got.position_filtered, want.position_filtered) << what;
  EXPECT_EQ(got.signature_filtered + got.verified, want.decided) << what;
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
      EXPECT_EQ(stats->verify_passed - stats->repeat_pairs, truth.size())
          << what;
      std::vector<ResultPair> pairs;
      for (const ScoredPair& sp : *out) pairs.push_back(sp.first);
      EXPECT_EQ(testutil::PairSet(pairs), truth) << what;
    }
  }
}

}  // namespace
}  // namespace rankjoin

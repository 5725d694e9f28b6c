// Randomized and exhaustive cross-checks of the optimized kernels
// against naive reference implementations, plus direct validation of
// the prefix-filtering completeness theory the joins rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "jaccard/jaccard.h"
#include "join/local_join.h"
#include "ranking/flat_rankings.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

/// Naive Footrule: dense rank vectors over the union domain.
uint32_t NaiveFootrule(const Ranking& a, const Ranking& b) {
  std::unordered_set<ItemId> domain(a.items().begin(), a.items().end());
  domain.insert(b.items().begin(), b.items().end());
  uint32_t distance = 0;
  for (ItemId item : domain) {
    int ra = a.RankOf(item);
    int rb = b.RankOf(item);
    if (ra < 0) ra = a.k();
    if (rb < 0) rb = b.k();
    distance += static_cast<uint32_t>(std::abs(ra - rb));
  }
  return distance;
}

/// Naive overlap via hash set.
int NaiveOverlap(const Ranking& a, const Ranking& b) {
  std::unordered_set<ItemId> in_a(a.items().begin(), a.items().end());
  int overlap = 0;
  for (ItemId item : b.items()) overlap += in_a.count(item) > 0;
  return overlap;
}

Ranking RandomRanking(RankingId id, int k, uint32_t domain, Rng& rng) {
  std::vector<ItemId> items;
  std::unordered_set<ItemId> seen;
  while (static_cast<int>(items.size()) < k) {
    ItemId item = static_cast<ItemId>(rng.Uniform(domain));
    if (seen.insert(item).second) items.push_back(item);
  }
  return Ranking(id, items);
}

TEST(FuzzReferenceTest, FootruleMatchesNaive) {
  Rng rng(9001);
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + static_cast<int>(rng.Uniform(12));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(20));
    Ranking a = RandomRanking(0, k, domain, rng);
    Ranking b = RandomRanking(1, k, domain, rng);
    EXPECT_EQ(FootruleDistance(a, b), NaiveFootrule(a, b))
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(FuzzReferenceTest, MergeJoinDistanceMatchesNaive) {
  Rng rng(9002);
  ItemOrder identity;
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = 1 + static_cast<int>(rng.Uniform(12));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(25));
    Ranking a = RandomRanking(0, k, domain, rng);
    Ranking b = RandomRanking(1, k, domain, rng);
    OrderedRanking oa = MakeOrdered(a, identity);
    OrderedRanking ob = MakeOrdered(b, identity);
    EXPECT_EQ(FootruleDistance(oa, ob), NaiveFootrule(a, b));
    EXPECT_EQ(SetOverlap(oa, ob), NaiveOverlap(a, b));
  }
}

TEST(FuzzReferenceTest, BoundedDistanceConsistentWithFull) {
  Rng rng(9003);
  ItemOrder identity;
  for (int trial = 0; trial < 2000; ++trial) {
    const int k = 2 + static_cast<int>(rng.Uniform(10));
    const uint32_t domain = static_cast<uint32_t>(k) +
                            static_cast<uint32_t>(rng.Uniform(15));
    OrderedRanking a = MakeOrdered(RandomRanking(0, k, domain, rng),
                                   identity);
    OrderedRanking b = MakeOrdered(RandomRanking(1, k, domain, rng),
                                   identity);
    const uint32_t full = FootruleDistance(a, b);
    const uint32_t bound =
        static_cast<uint32_t>(rng.Uniform(MaxFootrule(k) + 1));
    auto bounded = FootruleDistanceBounded(a, b, bound);
    if (full <= bound) {
      ASSERT_TRUE(bounded.has_value());
      EXPECT_EQ(*bounded, full);
    } else {
      EXPECT_FALSE(bounded.has_value());
    }
  }
}

/// The posting groups rows `a` and `b` of `store` meet in, when a's
/// postings were emitted with prefix length `prefix_a` and b's with
/// `prefix_b`, and how many of them own the pair (PrefixOwner, the rule
/// every prefix-join pair loop applies). Either row may be the outer
/// posting of a group's pair loop, and both must get the same answer.
struct Ownership {
  int met = 0;
  int owners = 0;
};

Ownership OwnershipOf(const JoinStore& store, RowIndex a, int prefix_a,
                      RowIndex b, int prefix_b, PrefixMode mode) {
  Ownership result;
  for (const auto& [item, posting_a] : EmitPrefix(store, a, prefix_a, mode)) {
    for (const auto& [other, posting_b] :
         EmitPrefix(store, b, prefix_b, mode)) {
      if (other != item) continue;
      ++result.met;
      const bool a_outer =
          !PrefixOwner(store, posting_a,
                       PrefixRankLimit(store.k(), prefix_a, mode))
               .Repeats(store.items(b));
      const bool b_outer =
          !PrefixOwner(store, posting_b,
                       PrefixRankLimit(store.k(), prefix_b, mode))
               .Repeats(store.items(a));
      EXPECT_EQ(a_outer, b_outer) << "group of item " << item;
      result.owners += a_outer;
    }
  }
  return result;
}

/// Exhaustive completeness of overlap-prefix filtering: for every pair
/// of top-k lists over a small universe, if the pair qualifies for a
/// threshold, their canonical-order prefixes of size OverlapPrefix must
/// intersect. This validates the theory the distributed pipelines rely
/// on, independent of the pipelines themselves. Exactly one of the
/// posting groups a qualifying pair meets in must own it, also when the
/// two rows have different prefix lengths of at least OverlapPrefix (the
/// centroid join's prefix_m and prefix_s). k = 3 leaves one pad lane,
/// which holds item 0, and item 0 is in the universe.
TEST(FuzzReferenceTest, OverlapPrefixCompletenessExhaustive) {
  const int k = 3;
  const uint32_t universe = 6;
  // All k-permutations of the universe.
  std::vector<Ranking> lists;
  std::vector<ItemId> current;
  std::vector<bool> used(universe, false);
  auto enumerate = [&](auto&& self) -> void {
    if (static_cast<int>(current.size()) == k) {
      lists.emplace_back(static_cast<RankingId>(lists.size()), current);
      return;
    }
    for (ItemId item = 0; item < universe; ++item) {
      if (used[item]) continue;
      used[item] = true;
      current.push_back(item);
      self(self);
      current.pop_back();
      used[item] = false;
    }
  };
  enumerate(enumerate);
  ASSERT_EQ(lists.size(), 120u);  // 6*5*4

  // Canonical order: any fixed total order works; use a scrambled one
  // to avoid accidentally aligning with item ids.
  std::unordered_map<ItemId, uint32_t> freq = {{0, 3}, {1, 1}, {2, 5},
                                               {3, 2}, {4, 6}, {5, 4}};
  ItemOrder order = ItemOrder::FromFrequencies(freq);
  auto ordered = MakeOrderedDataset(lists, order);
  const JoinStore store =
      JoinStore::Build(FlatRankings::FromRankings(k, lists), order);

  for (uint32_t raw_theta = 0; raw_theta < MaxFootrule(k); ++raw_theta) {
    const size_t p = static_cast<size_t>(OverlapPrefix(raw_theta, k));
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (FootruleDistance(ordered[i], ordered[j]) > raw_theta) continue;
        bool shared = false;
        for (size_t x = 0; x < p && !shared; ++x) {
          for (size_t y = 0; y < p && !shared; ++y) {
            shared = ordered[i].canonical[x].item ==
                     ordered[j].canonical[y].item;
          }
        }
        ASSERT_TRUE(shared)
            << "prefix filter would miss pair (" << i << "," << j
            << ") at raw_theta " << raw_theta;
        for (int prefix_i = static_cast<int>(p); prefix_i <= k; ++prefix_i) {
          for (int prefix_j = static_cast<int>(p); prefix_j <= k;
               ++prefix_j) {
            const Ownership o =
                OwnershipOf(store, static_cast<RowIndex>(i), prefix_i,
                            static_cast<RowIndex>(j), prefix_j,
                            PrefixMode::kOverlap);
            ASSERT_EQ(o.owners, 1)
                << "pair (" << i << "," << j << ") meets in " << o.met
                << " groups at raw_theta " << raw_theta << ", prefixes "
                << prefix_i << "/" << prefix_j;
          }
        }
      }
    }
  }
}

/// Same exhaustive completeness for the ordered prefix (Lemma 4.1),
/// within its validity region raw_theta < k^2/2, and the same ownership:
/// exactly one group owns each qualifying pair.
TEST(FuzzReferenceTest, OrderedPrefixCompletenessExhaustive) {
  const int k = 3;
  const uint32_t universe = 6;
  std::vector<Ranking> lists;
  std::vector<ItemId> current;
  std::vector<bool> used(universe, false);
  auto enumerate = [&](auto&& self) -> void {
    if (static_cast<int>(current.size()) == k) {
      lists.emplace_back(static_cast<RankingId>(lists.size()), current);
      return;
    }
    for (ItemId item = 0; item < universe; ++item) {
      if (used[item]) continue;
      used[item] = true;
      current.push_back(item);
      self(self);
      current.pop_back();
      used[item] = false;
    }
  };
  enumerate(enumerate);
  // The ordered prefix runs without reordering: identity item order.
  const JoinStore store =
      JoinStore::Build(FlatRankings::FromRankings(k, lists), ItemOrder());

  for (uint32_t raw_theta = 0; OrderedPrefixApplicable(raw_theta, k);
       ++raw_theta) {
    const int p = OrderedPrefix(raw_theta, k);
    for (size_t i = 0; i < lists.size(); ++i) {
      for (size_t j = i + 1; j < lists.size(); ++j) {
        if (FootruleDistance(lists[i], lists[j]) > raw_theta) continue;
        // The ordered prefix is the best-ranked p items of each list.
        bool shared = false;
        for (int x = 0; x < p && !shared; ++x) {
          for (int y = 0; y < p && !shared; ++y) {
            shared = lists[i].ItemAt(x) == lists[j].ItemAt(y);
          }
        }
        ASSERT_TRUE(shared)
            << "ordered prefix would miss pair at raw_theta " << raw_theta;
        const Ownership o =
            OwnershipOf(store, static_cast<RowIndex>(i), p,
                        static_cast<RowIndex>(j), p, PrefixMode::kOrdered);
        ASSERT_EQ(o.owners, 1)
            << "pair (" << i << "," << j << ") meets in " << o.met
            << " groups at raw_theta " << raw_theta;
      }
    }
  }
}

/// Jaccard prefix completeness, randomized: qualifying pairs must share
/// a canonical prefix token.
TEST(FuzzReferenceTest, JaccardPrefixCompletenessRandom) {
  GeneratorOptions options;
  options.k = 8;
  options.num_rankings = 150;
  options.domain_size = 40;
  options.seed = 9004;
  RankingDataset ds = GenerateDataset(options);
  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.rankings));
  auto ordered = MakeOrderedDataset(ds.rankings, order);
  for (double theta : {0.2, 0.5, 0.8}) {
    const size_t p = static_cast<size_t>(JaccardPrefix(theta, ds.k));
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (!JaccardQualifies(SetOverlap(ordered[i], ordered[j]), ds.k,
                              theta)) {
          continue;
        }
        bool shared = false;
        for (size_t x = 0; x < p && !shared; ++x) {
          for (size_t y = 0; y < p && !shared; ++y) {
            shared = ordered[i].canonical[x].item ==
                     ordered[j].canonical[y].item;
          }
        }
        ASSERT_TRUE(shared) << "jaccard prefix miss at theta " << theta;
      }
    }
  }
}

}  // namespace
}  // namespace rankjoin

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
/// postings were emitted under raw threshold `theta_a` and b's under
/// `theta_b`, and how many of them own the pair (PrefixOwner, the rule
/// every prefix-join pair loop applies). Either row may be the outer
/// posting of a group's pair loop, and both must get the same answer.
struct Ownership {
  int met = 0;
  int owners = 0;
};

Ownership OwnershipOf(const JoinStore& store, RowIndex a, uint32_t theta_a,
                      RowIndex b, uint32_t theta_b, PrefixMode mode) {
  Ownership result;
  for (const auto& [item, posting_a] : EmitPrefix(store, a, theta_a, mode)) {
    for (const auto& [other, posting_b] :
         EmitPrefix(store, b, theta_b, mode)) {
      if (other != item) continue;
      ++result.met;
      const bool a_outer =
          !PrefixOwner(store, posting_a,
                       PrefixRankLimit(store.k(), theta_a, mode))
               .Repeats(store.items(b));
      const bool b_outer =
          !PrefixOwner(store, posting_b,
                       PrefixRankLimit(store.k(), theta_b, mode))
               .Repeats(store.items(a));
      EXPECT_EQ(a_outer, b_outer) << "group of item " << item;
      result.owners += a_outer;
    }
  }
  return result;
}

/// All k-permutations of the items 0 .. universe - 1, ids in order.
std::vector<Ranking> AllLists(int k, uint32_t universe) {
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
  return lists;
}

/// The items of a row's rank-weighted prefix under `raw_theta`, in
/// canonical order, as the pipelines emit them.
std::vector<ItemId> PrefixItems(const JoinStore& store, RowIndex row,
                                uint32_t raw_theta) {
  std::vector<ItemId> items;
  for (const auto& [item, posting] :
       EmitPrefix(store, row, raw_theta, PrefixMode::kOverlap)) {
    items.push_back(item);
  }
  return items;
}

/// Exhaustive check of the rank-weighted prefix (ForEachPrefixRank under
/// kOverlap) over every top-k list of a small universe and every raw
/// threshold: each prefix holds 1 to OverlapPrefix items and is the
/// start of the row's canonical order, and the first shared item in
/// canonical order of every qualifying pair is in both rows' prefixes.
/// With `check_ownership`, exactly one of the posting groups a
/// qualifying pair meets in owns it, also when the two rows post under
/// different thresholds at or above the pair's (the centroid join's mm
/// and ms classes).
void CheckWeightedPrefix(int k, uint32_t universe, bool check_ownership) {
  const std::vector<Ranking> lists = AllLists(k, universe);
  size_t permutations = 1;  // universe! / (universe - k)!
  for (int i = 0; i < k; ++i) permutations *= universe - i;
  ASSERT_EQ(lists.size(), permutations);
  // Canonical order: any fixed total order works; use a scrambled one
  // to avoid accidentally aligning with item ids.
  std::unordered_map<ItemId, uint32_t> freq = {{0, 3}, {1, 1}, {2, 5},
                                               {3, 2}, {4, 6}, {5, 4}};
  const ItemOrder order = ItemOrder::FromFrequencies(freq);
  const auto ordered = MakeOrderedDataset(lists, order);
  const JoinStore store =
      JoinStore::Build(FlatRankings::FromRankings(k, lists), order);
  const uint32_t max_theta = MaxFootrule(k);

  // prefixes[theta][row]: the row's prefix items under theta.
  std::vector<std::vector<std::vector<ItemId>>> prefixes(max_theta);
  for (uint32_t theta = 0; theta < max_theta; ++theta) {
    const size_t longest = static_cast<size_t>(OverlapPrefix(theta, k));
    for (RowIndex row = 0; row < store.size(); ++row) {
      std::vector<ItemId> items = PrefixItems(store, row, theta);
      EXPECT_GE(items.size(), 1u) << "row " << row << " theta " << theta;
      EXPECT_LE(items.size(), longest) << "row " << row << " theta "
                                       << theta;
      for (size_t t = 0; t < items.size(); ++t) {
        EXPECT_EQ(items[t], ordered[row].canonical[t].item)
            << "not a canonical prefix: row " << row << " theta " << theta;
      }
      prefixes[theta].push_back(std::move(items));
    }
  }
  auto holds = [](const std::vector<ItemId>& items, ItemId item) {
    return std::find(items.begin(), items.end(), item) != items.end();
  };

  size_t checked = 0;
  for (uint32_t raw_theta = 0; raw_theta < max_theta; ++raw_theta) {
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (FootruleDistance(ordered[i], ordered[j]) > raw_theta) continue;
        ++checked;
        // The first shared item in canonical order: the order is global,
        // so it is i's first canonical item that j holds.
        ItemId first = 0;
        for (const auto& entry : ordered[i].canonical) {
          if (lists[j].RankOf(entry.item) >= 0) {
            first = entry.item;
            break;
          }
        }
        ASSERT_TRUE(holds(prefixes[raw_theta][i], first) &&
                    holds(prefixes[raw_theta][j], first))
            << "prefix filter would miss pair (" << i << "," << j
            << ") at raw_theta " << raw_theta;
        if (!check_ownership) continue;
        // One posting threshold per distinct prefix of each row, from the
        // pair's threshold up.
        auto posting_thetas = [&](size_t row) {
          std::vector<uint32_t> thetas;
          for (uint32_t theta = raw_theta; theta < max_theta; ++theta) {
            if (thetas.empty() ||
                prefixes[theta][row].size() !=
                    prefixes[thetas.back()][row].size()) {
              thetas.push_back(theta);
            }
          }
          return thetas;
        };
        for (uint32_t theta_i : posting_thetas(i)) {
          for (uint32_t theta_j : posting_thetas(j)) {
            const Ownership o = OwnershipOf(
                store, static_cast<RowIndex>(i), theta_i,
                static_cast<RowIndex>(j), theta_j, PrefixMode::kOverlap);
            ASSERT_EQ(o.owners, 1)
                << "pair (" << i << "," << j << ") meets in " << o.met
                << " groups at raw_theta " << raw_theta
                << ", posted under " << theta_i << "/" << theta_j;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

/// The rank-weighted prefix at k = 3 over 6 items (120 lists; k = 3
/// leaves one pad lane, which holds item 0, and item 0 is in the
/// universe), with the ownership check. This validates the theory the
/// distributed pipelines rely on, through the library's own EmitPrefix
/// and PrefixOwner, independent of the pipelines themselves.
TEST(FuzzReferenceTest, OverlapPrefixCompletenessExhaustive) {
  CheckWeightedPrefix(3, 6, /*check_ownership=*/true);
}

/// Completeness of the rank-weighted prefix at k = 4 over 6 items (360
/// lists).
TEST(FuzzReferenceTest, WeightedPrefixCompletenessExhaustiveK4) {
  CheckWeightedPrefix(4, 6, /*check_ownership=*/false);
}

/// Same exhaustive completeness for the ordered prefix (Lemma 4.1),
/// within its validity region raw_theta < k^2/2, and the same ownership:
/// exactly one group owns each qualifying pair.
TEST(FuzzReferenceTest, OrderedPrefixCompletenessExhaustive) {
  const int k = 3;
  const std::vector<Ranking> lists = AllLists(k, 6);
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
        const Ownership o = OwnershipOf(store, static_cast<RowIndex>(i),
                                        raw_theta, static_cast<RowIndex>(j),
                                        raw_theta, PrefixMode::kOrdered);
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

// Randomized and exhaustive cross-checks of the optimized kernels
// against naive reference implementations, plus direct validation of
// the prefix-filtering completeness theory the joins rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/similarity_join.h"
#include "data/generator.h"
#include "jaccard/jaccard.h"
#include "jaccard/jaccard_join.h"
#include "join/brute_force.h"
#include "join/cluster_join.h"
#include "join/local_join.h"
#include "join/rs_join.h"
#include "ranking/flat_rankings.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

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

/// The (x, y) buckets rows `a` and `b` meet in when their groups run
/// bucketed with sub-keys under `key_theta` (SubKeysOf; the pair loops
/// take the group's largest pair threshold), a's postings emitted under
/// `theta_a` and b's under `theta_b`, and how many of them own the pair:
/// PrefixOwner with the second key's position, asked from either row.
Ownership BucketOwnershipOf(const JoinStore& store, RowIndex a,
                            uint32_t theta_a, RowIndex b, uint32_t theta_b,
                            uint32_t key_theta) {
  Ownership result;
  const ItemId* a_items = store.items(a);
  const ItemId* b_items = store.items(b);
  for (const auto& [item, posting_a] :
       EmitPrefix(store, a, theta_a, PrefixMode::kOverlap)) {
    for (const auto& [other, posting_b] :
         EmitPrefix(store, b, theta_b, PrefixMode::kOverlap)) {
      if (other != item) continue;
      const SubKeys keys_a = SubKeysOf(store, posting_a, key_theta);
      const SubKeys keys_b = SubKeysOf(store, posting_b, key_theta);
      for (int p = keys_a.key + 1; p < keys_a.end; ++p) {
        const ItemId y = a_items[store.canonical(a)[p]];
        for (int q = keys_b.key + 1; q < keys_b.end; ++q) {
          if (b_items[store.canonical(b)[q]] != y) continue;
          ++result.met;
          const bool a_outer =
              !PrefixOwner(store, a, keys_a.key, p).Repeats(b_items);
          const bool b_outer =
              !PrefixOwner(store, b, keys_b.key, q).Repeats(a_items);
          EXPECT_EQ(a_outer, b_outer)
              << "bucket (" << item << ", " << y << ")";
          result.owners += a_outer;
        }
      }
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
/// kOverlap) with the rank weights of `distance`, over every top-k list
/// of a small universe and every raw threshold: each prefix holds 1 to
/// OverlapPrefix items (Footrule) or floor(raw_theta / 2) + 1 items
/// (Jaccard's unit weights) and is the start of the row's canonical
/// order, and the first shared item in canonical order of every
/// qualifying pair is in both rows' prefixes. With `check_ownership`,
/// exactly one of the posting groups a qualifying pair meets in owns it,
/// also when the two rows post under different thresholds at or above
/// the pair's (the centroid join's mm and ms classes); and where every
/// pair qualifying under the larger posting threshold shares two items
/// (SharesTwoItems), exactly one (x, y) bucket of all groups owns it
/// with sub-keys under that threshold, the bucketed pair loops' rule.
void CheckWeightedPrefix(int k, uint32_t universe, bool check_ownership,
                         Distance distance = Distance::kFootrule) {
  const std::vector<Ranking> lists = AllLists(k, universe);
  size_t permutations = 1;  // universe! / (universe - k)!
  for (int i = 0; i < k; ++i) permutations *= universe - i;
  ASSERT_EQ(lists.size(), permutations);
  // Canonical order: any fixed total order works; use a scrambled one
  // to avoid accidentally aligning with item ids.
  const ItemCounts freq = {{0, 3}, {1, 1}, {2, 5},
                           {3, 2}, {4, 6}, {5, 4}};
  const ItemOrder order = ItemOrder::FromFrequencies(freq);
  const auto ordered = MakeOrderedDataset(lists, order);
  const JoinStore store = JoinStore::Build(
      FlatRankings::FromRankings(k, lists), order, distance);
  const bool footrule = distance == Distance::kFootrule;
  const uint32_t max_theta = footrule ? MaxFootrule(k) : 2 * k;
  ASSERT_EQ(store.kernel().max_distance(), max_theta);
  // The reference distance of rows i and j.
  auto reference = [&](size_t i, size_t j) {
    return footrule ? FootruleDistance(ordered[i], ordered[j])
                    : static_cast<uint32_t>(
                          2 * (k - SetOverlap(ordered[i], ordered[j])));
  };

  // prefixes[theta][row]: the row's prefix items under theta.
  std::vector<std::vector<std::vector<ItemId>>> prefixes(max_theta);
  for (uint32_t theta = 0; theta < max_theta; ++theta) {
    const size_t longest = footrule
                               ? static_cast<size_t>(OverlapPrefix(theta, k))
                               : theta / 2 + 1;
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
  size_t bucketed = 0;
  for (uint32_t raw_theta = 0; raw_theta < max_theta; ++raw_theta) {
    for (size_t i = 0; i < ordered.size(); ++i) {
      for (size_t j = i + 1; j < ordered.size(); ++j) {
        if (reference(i, j) > raw_theta) continue;
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
            const uint32_t key_theta = std::max(theta_i, theta_j);
            if (!SharesTwoItems(store.kernel(), key_theta)) continue;
            ++bucketed;
            const Ownership buckets = BucketOwnershipOf(
                store, static_cast<RowIndex>(i), theta_i,
                static_cast<RowIndex>(j), theta_j, key_theta);
            ASSERT_EQ(buckets.owners, 1)
                << "pair (" << i << "," << j << ") meets in " << buckets.met
                << " buckets at raw_theta " << raw_theta << ", posted under "
                << theta_i << "/" << theta_j;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
  if (check_ownership) {
    EXPECT_GT(bucketed, 0u);
  }
}

/// The rank-weighted prefix at k = 3 over 6 items (120 lists; k = 3
/// leaves one pad lane, which holds item 0, and item 0 is in the
/// universe), with the ownership checks of groups and of (x, y)
/// buckets, under Footrule's weights and under Jaccard's unit weights.
/// This validates the theory the distributed pipelines rely on, through
/// the library's own EmitPrefix, SubKeysOf and PrefixOwner, independent
/// of the pipelines themselves.
TEST(FuzzReferenceTest, OverlapPrefixCompletenessExhaustive) {
  CheckWeightedPrefix(3, 6, /*check_ownership=*/true);
  CheckWeightedPrefix(3, 6, /*check_ownership=*/true, Distance::kJaccard);
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

/// Jaccard prefix completeness, randomized: under the raw threshold
/// 2(k - JaccardMinOverlap), the unit-weight prefixes of every
/// qualifying pair share an item.
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
  const JoinStore store =
      JoinStore::Build(ds.store(), order, Distance::kJaccard);
  for (double theta : {0.2, 0.5, 0.8}) {
    const uint32_t raw_theta =
        static_cast<uint32_t>(2 * (ds.k - JaccardMinOverlap(theta, ds.k)));
    for (RowIndex i = 0; i < ordered.size(); ++i) {
      const std::vector<ItemId> a = PrefixItems(store, i, raw_theta);
      for (RowIndex j = i + 1; j < ordered.size(); ++j) {
        if (!JaccardQualifies(SetOverlap(ordered[i], ordered[j]), ds.k,
                              theta)) {
          continue;
        }
        const std::vector<ItemId> b = PrefixItems(store, j, raw_theta);
        const bool shared = std::find_first_of(a.begin(), a.end(), b.begin(),
                                               b.end()) != a.end();
        ASSERT_TRUE(shared) << "jaccard prefix miss at theta " << theta;
      }
    }
  }
}

/// A threshold in [0, hi], either uniform or a multiple of 1 / (k(k+1)),
/// where the raw threshold theta * k(k+1) is integral and rounding
/// decides it.
double RandomTheta(double hi, int k, Rng& rng) {
  const double max_raw = static_cast<double>(MaxFootrule(k));
  if (rng.Bernoulli(0.3)) {
    const double steps = std::floor(hi * max_raw) + 1;
    return std::floor(rng.NextDouble() * steps) / max_raw;
  }
  return rng.NextDouble() * hi;
}

const uint64_t kSweepDeltas[] = {0, 2, 3, 10, 1000};

/// One random dataset of the seeded sweeps below: the size, k, domain,
/// skew, near and exact duplicate rates, and an id layout (dense 0..n-1,
/// reversed, or packed just below 2^32).
struct SweepData {
  GeneratorOptions gen;
  RankingDataset ds;
  const char* layout = "";
};

SweepData DrawSweepData(Rng& rng) {
  const int ks[] = {1, 2, 3, 4, 5, 10, 25};
  const char* const layouts[] = {"dense", "reversed", "near 2^32"};
  SweepData d;
  GeneratorOptions& gen = d.gen;
  gen.k = ks[rng.Uniform(std::size(ks))];
  gen.num_rankings = 2 + rng.Uniform(149);
  gen.domain_size =
      static_cast<uint32_t>(gen.k + rng.Uniform(5 * gen.k + 30));
  gen.zipf_skew = 1.2 * rng.NextDouble();
  gen.near_duplicate_rate = 0.8 * rng.NextDouble();
  gen.exact_duplicate_rate = rng.Bernoulli(0.5) ? 0.4 * rng.NextDouble() : 0;
  gen.max_perturbations = static_cast<int>(1 + rng.Uniform(3));
  gen.seed = rng.Next();
  d.ds = GenerateDataset(gen);
  const size_t layout = rng.Uniform(3);
  d.layout = layouts[layout];
  const RankingId n = static_cast<RankingId>(d.ds.rankings.size());
  for (Ranking& r : d.ds.rankings) {
    RankingId id = r.id();
    if (layout == 1) id = n - 1 - id;
    if (layout == 2) id = UINT32_MAX - (n - 1) + id;
    r = Ranking(id, r.items());
  }
  return d;
}

/// theta_c for a case at `theta`: theta itself, 0, or a draw below
/// min(theta, (1 - theta) / 2).
double DrawThetaC(double theta, int k, Rng& rng) {
  if (rng.Bernoulli(0.1)) return theta;
  if (rng.Bernoulli(0.2)) return 0;
  return RandomTheta(std::min(theta, (1 - theta) / 2), k, rng);
}

std::string DescribeData(const SweepData& d) {
  std::ostringstream os;
  os << "n=" << d.ds.rankings.size() << " k=" << d.gen.k << " domain=" << d.gen.domain_size
     << " skew=" << d.gen.zipf_skew << " near=" << d.gen.near_duplicate_rate
     << " exact=" << d.gen.exact_duplicate_rate << " layout=" << d.layout;
  return os.str();
}

/// Seeded differential test of the clustering joins: about 600 random
/// cases, each compared with the brute-force pair set. The cases vary
/// the data (size, k, domain, near and exact duplicate rates), the id
/// layout, theta and theta_c, delta (small values force chunk joins),
/// the partition and worker counts and the filter toggles, over
/// RunClusterJoin and RunJaccardClusterJoin.
TEST(FuzzReferenceTest, ClusterJoinsMatchBruteForceSeeded) {
  constexpr int kCases = 600;
  int valid = 0;
  int failed = 0;
  int with_clusters = 0;
  int with_chunk_joins = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0xC1D5EED0000ULL + static_cast<uint64_t>(c));
    SweepData data = DrawSweepData(rng);
    const GeneratorOptions& gen = data.gen;
    const RankingDataset& ds = data.ds;

    const bool jaccard = rng.Bernoulli(0.35);
    const double theta = RandomTheta(jaccard ? 0.9 : 0.6, gen.k, rng);
    const double theta_c = DrawThetaC(theta, gen.k, rng);
    const int partitions = static_cast<int>(1 + rng.Uniform(9));
    const int workers = static_cast<int>(1 + rng.Uniform(4));
    const uint64_t delta =
        kSweepDeltas[rng.Uniform(std::size(kSweepDeltas))];
    const bool position_filter = rng.Bernoulli(0.5);
    const bool singleton_optimization = rng.Bernoulli(0.5);
    const bool triangle_upper_shortcut = rng.Bernoulli(0.5);
    const bool reorder = rng.Bernoulli(0.5);
    const bool adaptive = delta > 0 && rng.Bernoulli(0.3);

    std::ostringstream describe;
    describe << "case " << c << (jaccard ? " jaccard-cl" : " cl") << ": "
             << DescribeData(data) << " theta=" << theta
             << " theta_c=" << theta_c << " delta=" << delta
             << " adaptive=" << adaptive << " partitions=" << partitions
             << " workers=" << workers << " position_filter="
             << position_filter << " singleton_opt="
             << singleton_optimization << " triangle_shortcut="
             << triangle_upper_shortcut << " reorder=" << reorder;

    minispark::Context ctx(testutil::TestCluster(workers, partitions));
    // The one case the options' validation rejects: the enlarged
    // centroid threshold theta + 2 * theta_c reaches the disjoint-pair
    // distance, in raw units or (Jaccard) normalized.
    const int k = gen.k;
    const bool rejected =
        jaccard ? theta + 2 * theta_c >= 1.0 ||
                      2 * (k - JaccardMinOverlap(theta, k)) +
                              4 * (k - JaccardMinOverlap(theta_c, k)) >=
                          2 * k
                : RawThreshold(theta, k) + 2 * RawThreshold(theta_c, k) >=
                      MaxFootrule(k);
    std::vector<ResultPair> truth;
    Result<JoinResult> result = [&]() -> Result<JoinResult> {
      if (jaccard) {
        JaccardJoinOptions options;
        options.theta = theta;
        options.theta_c = theta_c;
        options.num_partitions = partitions;
        options.reorder_by_frequency = reorder;
        options.singleton_optimization = singleton_optimization;
        options.triangle_upper_shortcut = triangle_upper_shortcut;
        truth = JaccardBruteForceJoin(ds, theta).pairs;
        return RunJaccardClusterJoin(&ctx, ds, options);
      }
      ClOptions options;
      options.theta = theta;
      options.theta_c = theta_c;
      options.num_partitions = partitions;
      options.position_filter = position_filter;
      options.reorder_by_frequency = reorder;
      options.singleton_optimization = singleton_optimization;
      options.triangle_upper_shortcut = triangle_upper_shortcut;
      options.repartition_delta = delta;
      options.adaptive_repartition = adaptive;
      truth = BruteForceJoin(ds, theta).pairs;
      return RunClusterJoin(&ctx, ds, options);
    }();
    EXPECT_EQ(result.ok(), !rejected) << describe.str();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << describe.str() << ": " << result.status();
      continue;
    }
    ++valid;
    with_clusters += result->stats.clusters > 0;
    with_chunk_joins += result->stats.chunk_pair_joins > 0;
    SCOPED_TRACE(describe.str());
    const bool same =
        testutil::PairSet(result->pairs) == testutil::PairSet(truth);
    failed += !same;
    EXPECT_TRUE(same) << result->pairs.size() << " pairs, "
                      << truth.size() << " expected";
  }
  std::printf(
      "%d valid cases (%d failed), %d with clusters, %d with chunk joins\n",
      valid, failed, with_clusters, with_chunk_joins);
  // The sweep must keep reaching the paths it is meant to cover.
  EXPECT_GE(valid, 500);
  EXPECT_GE(with_clusters, 400);
  EXPECT_GE(with_chunk_joins, 100);
}

/// Seeded differential test of every algorithm under every engine
/// configuration: about 500 cases on the data of the sweep above, each
/// compared with brute force. A case draws the algorithm (VJ, VJ-NL,
/// CL, CL-P, V-SMART and auto through RunSimilarityJoin, the R-S join,
/// Jaccard VJ) and the engine: pipelined or barrier stages, the shuffle
/// budget (resident, 1 byte, 4 KiB), seeded chaos, workers and
/// partitions. The RANKJOIN_* env is pinned, so CI's env jobs cannot
/// override the draw.
TEST(FuzzReferenceTest, JoinsMatchBruteForceAcrossEngineConfigsSeeded) {
  testutil::PinnedEnv pinned;
  constexpr int kCases = 500;
  const Algorithm algorithms[] = {Algorithm::kVJ,    Algorithm::kVJNL,
                                  Algorithm::kCL,    Algorithm::kCLP,
                                  Algorithm::kVSmart, Algorithm::kAuto};
  const uint64_t budgets[] = {0, 1, 4096};
  int valid = 0;
  int failed = 0;
  int chaos_recovered = 0;
  int spilled = 0;
  int pipelined_runs = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0xE9C0F1600000ULL + static_cast<uint64_t>(c));
    const SweepData data = DrawSweepData(rng);
    const int k = data.gen.k;
    // Eight join kinds: the six RunSimilarityJoin algorithms, R-S and
    // Jaccard VJ.
    const size_t kind = rng.Uniform(8);
    const bool rs = kind == 6;
    const bool jaccard = kind == 7;
    const double theta = RandomTheta(jaccard ? 0.9 : 0.6, k, rng);
    const double theta_c = DrawThetaC(theta, k, rng);
    const uint64_t delta =
        kSweepDeltas[rng.Uniform(std::size(kSweepDeltas))];
    const int partitions = static_cast<int>(1 + rng.Uniform(9));
    minispark::Context::Options options = testutil::TestCluster(
        static_cast<int>(1 + rng.Uniform(4)), partitions);
    options.pipelined_stages = rng.Bernoulli(0.5);
    options.shuffle_memory_budget_bytes =
        budgets[rng.Uniform(std::size(budgets))];
    if (rng.Bernoulli(0.5)) {
      options.fault_spec =
          "task_throw:p=0.05;spill_corrupt:p=0.2;seed=" + std::to_string(c);
    }
    options.retry_backoff_ms = 0;

    const char* name = rs        ? "rs"
                       : jaccard ? "jaccard-vj"
                                 : AlgorithmName(algorithms[kind]);
    std::ostringstream describe;
    describe << "case " << c << " " << name << ": " << DescribeData(data)
             << " theta=" << theta << " theta_c=" << theta_c
             << " delta=" << delta << " workers=" << options.num_workers
             << " partitions=" << partitions
             << " pipelined=" << options.pipelined_stages
             << " budget=" << options.shuffle_memory_budget_bytes << " fault='"
             << options.fault_spec << "'";
    SCOPED_TRACE(describe.str());

    minispark::Context ctx(options);
    std::vector<ResultPair> truth;
    bool rejected = false;
    Result<JoinResult> result = [&]() -> Result<JoinResult> {
      if (rs) {
        // R and S interleave the rankings, so both see every id layout.
        RankingDataset r;
        RankingDataset s;
        r.k = s.k = k;
        for (size_t i = 0; i < data.ds.rankings.size(); ++i) {
          (i % 2 == 0 ? r : s).rankings.push_back(data.ds.rankings[i]);
        }
        RsJoinOptions rs_options;
        rs_options.theta = theta;
        rs_options.num_partitions = partitions;
        truth = BruteForceRsJoin(r, s, theta).pairs;
        return RunRsJoin(&ctx, r, s, rs_options);
      }
      if (jaccard) {
        JaccardJoinOptions jaccard_options;
        jaccard_options.theta = theta;
        jaccard_options.num_partitions = partitions;
        truth = JaccardBruteForceJoin(data.ds, theta).pairs;
        return RunJaccardVjJoin(&ctx, data.ds, jaccard_options);
      }
      SimilarityJoinConfig config;
      config.algorithm = algorithms[kind];
      config.theta = theta;
      config.theta_c = theta_c;
      config.delta = delta;
      config.num_partitions = partitions;
      rejected = !config.Validate(k).ok();
      truth = BruteForceJoin(data.ds, theta).pairs;
      return RunSimilarityJoin(&ctx, data.ds, config);
    }();
    EXPECT_EQ(result.ok(), !rejected) << result.status();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << result.status();
      continue;
    }
    ++valid;
    const minispark::JobMetrics& metrics = ctx.metrics();
    chaos_recovered += metrics.TotalTaskRetries() > 0 ||
                       metrics.TotalRecoveredSpillRuns() > 0;
    spilled += metrics.TotalSpilledBytes() > 0;
    pipelined_runs += std::any_of(
        metrics.stages().begin(), metrics.stages().end(),
        [](const minispark::StageMetrics& stage) {
          return stage.fused_ops.find("(pipelined)") != std::string::npos;
        });
    const bool same =
        testutil::PairSet(result->pairs) == testutil::PairSet(truth);
    failed += !same;
    EXPECT_TRUE(same) << result->pairs.size() << " pairs, " << truth.size()
                      << " expected";
  }
  std::printf(
      "%d valid cases (%d failed): %d recovered from chaos, %d spilled, "
      "%d ran pipelined stages\n",
      valid, failed, chaos_recovered, spilled, pipelined_runs);
  // The sweep must keep reaching the engine paths it is meant to cover.
  EXPECT_GE(valid, 450);
  EXPECT_GE(chaos_recovered, 150);
  EXPECT_GE(spilled, 200);
  EXPECT_GE(pipelined_runs, 150);
}

}  // namespace
}  // namespace rankjoin

// The verification kernel of the join store (ranking/join_store.h),
// checked against independent references: the hash-map
// FootruleDistance(const Ranking&, const Ranking&), a naive set overlap
// (the Jaccard kernel's 2(k - overlap)), a naive prefix position filter
// and a bit-by-bit popcount; and the signature bound, which must never
// exceed the distance under either distance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "join/local_join.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

// Up to k = 32 the chunk count is a compile-time constant; 33 and 40
// take the run-time-width kernel.
const int kSizes[] = {1, 2, 3, 4, 5, 8, 10, 12, 25, 33, 40};

/// k distinct items from a small domain that includes 0 and 0xFFFFFFFF,
/// the values most likely to collide with pad lanes.
std::vector<ItemId> RandomItems(int k, Rng& rng) {
  const ItemId domain[] = {0, 0xFFFFFFFFu, 0xFFFFFFFEu, 1, 2, 3};
  std::vector<ItemId> items;
  while (static_cast<int>(items.size()) < k) {
    const uint64_t pick = rng.Uniform(static_cast<uint64_t>(3 * k + 6));
    const ItemId item =
        pick < 6 ? domain[pick] : static_cast<ItemId>(100 + pick);
    if (std::find(items.begin(), items.end(), item) == items.end()) {
      items.push_back(item);
    }
  }
  return items;
}

/// `a` with a few ranks swapped and a few items replaced.
std::vector<ItemId> Perturb(std::vector<ItemId> a, Rng& rng) {
  const int k = static_cast<int>(a.size());
  const int ops = static_cast<int>(rng.Uniform(4));
  for (int op = 0; op < ops; ++op) {
    if (rng.Uniform(2) == 0) {
      std::swap(a[rng.Uniform(static_cast<uint64_t>(k))],
                a[rng.Uniform(static_cast<uint64_t>(k))]);
    } else {
      const ItemId fresh = static_cast<ItemId>(5000 + rng.Uniform(1000));
      if (std::find(a.begin(), a.end(), fresh) == a.end()) {
        a[rng.Uniform(static_cast<uint64_t>(k))] = fresh;
      }
    }
  }
  return a;
}

/// A two-ranking store, identity canonical order.
JoinStore PairStore(const Ranking& a, const Ranking& b,
                    Distance distance = Distance::kFootrule) {
  FlatRankings::Builder builder(a.k());
  builder.Append(a.id(), a.items().data());
  builder.Append(b.id(), b.items().data());
  const FlatRankings flat = std::move(builder).Build();
  return JoinStore::Build(flat, ItemOrder(), distance);
}

int NaiveOverlap(const Ranking& a, const Ranking& b) {
  int overlap = 0;
  for (ItemId item : a.items()) overlap += b.RankOf(item) >= 0 ? 1 : 0;
  return overlap;
}

/// The raw Jaccard distance |A xor B| of two size-k sets.
uint32_t NaiveSymmetricDifference(const Ranking& a, const Ranking& b) {
  return static_cast<uint32_t>(2 * (a.k() - NaiveOverlap(a, b)));
}

/// The reference distance of `a` and `b` under `distance`.
uint32_t ReferenceDistance(Distance distance, const Ranking& a,
                           const Ranking& b) {
  return distance == Distance::kFootrule ? FootruleDistance(a, b)
                                         : NaiveSymmetricDifference(a, b);
}

/// The signature bound of rows `a` and `b` under the kernel of `store`.
uint32_t BoundOf(const JoinStore& store, RowIndex a, RowIndex b) {
  return store.kernel().signature_bound()(store.signature(a),
                                          store.signature(b));
}

TEST(PairKernelTest, MatchesHashMapFootruleOnSeededPairs) {
  Rng rng(20201);
  for (int k : kSizes) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::vector<ItemId> items = RandomItems(k, rng);
      const Ranking a(0, items);
      const Ranking b(1, trial % 3 == 0 ? RandomItems(k, rng)
                                        : Perturb(items, rng));
      const JoinStore store = PairStore(a, b);
      EXPECT_EQ(store.Distance(0, 1), FootruleDistance(a, b)) << "k " << k;
      EXPECT_EQ(store.Distance(1, 0), FootruleDistance(a, b)) << "k " << k;
      // Unit weights: k = 33 and 40 take the run-time-width kernel.
      const JoinStore sets = PairStore(a, b, Distance::kJaccard);
      EXPECT_EQ(sets.Distance(0, 1), NaiveSymmetricDifference(a, b))
          << "k " << k;
      EXPECT_EQ(sets.Distance(1, 0), NaiveSymmetricDifference(a, b))
          << "k " << k;
    }
  }
}

TEST(PairKernelTest, IdenticalAndDisjointPairs) {
  Rng rng(20202);
  for (int k : kSizes) {
    std::vector<ItemId> items = RandomItems(k, rng);
    const Ranking a(0, items);
    const JoinStore same = PairStore(a, Ranking(1, items));
    EXPECT_EQ(same.Distance(0, 1), 0u);
    EXPECT_EQ(same.Distance(0, 0), 0u);
    const JoinStore same_sets =
        PairStore(a, Ranking(1, items), Distance::kJaccard);
    EXPECT_EQ(same_sets.Distance(0, 1), 0u);

    // Disjoint, with b's items chosen so that 0 and 0xFFFFFFFF sit in
    // a while b's pad lanes hold 0.
    std::vector<ItemId> other;
    for (int r = 0; r < k; ++r) other.push_back(static_cast<ItemId>(7000 + r));
    const JoinStore disjoint = PairStore(a, Ranking(1, other));
    EXPECT_EQ(disjoint.Distance(0, 1), MaxFootrule(k));
    EXPECT_EQ(disjoint.kernel().max_distance(), MaxFootrule(k));
    const JoinStore disjoint_sets =
        PairStore(a, Ranking(1, other), Distance::kJaccard);
    EXPECT_EQ(disjoint_sets.Distance(0, 1), 2u * k);
    EXPECT_EQ(disjoint_sets.kernel().max_distance(), 2u * k);
  }
}

TEST(PairKernelTest, PadLanesNeverMatch) {
  // a holds item 0, which equals the zero padding of b's row; b holds 0
  // only when the pair really shares it.
  for (int k : {1, 2, 3, 5, 10, 25}) {
    std::vector<ItemId> with_zero;
    std::vector<ItemId> without_zero;
    for (int r = 0; r < k; ++r) {
      with_zero.push_back(static_cast<ItemId>(r));  // holds 0 at rank 0
      without_zero.push_back(static_cast<ItemId>(900 + r));
    }
    const Ranking a(0, with_zero);
    const Ranking b(1, without_zero);
    EXPECT_EQ(PairStore(a, b).Distance(0, 1), FootruleDistance(a, b));
    EXPECT_EQ(PairStore(b, a).Distance(0, 1), FootruleDistance(a, b));
  }
}

/// The two-posting group of rows 0 and 1 of `store` keyed by their
/// first shared item in canonical order, as EmitPrefix would key the
/// group that owns the pair. Rows that share no item meet in no group;
/// they get the group keyed at rank 0 of both, where the join decides
/// them with the kernel or the signature bound all the same.
std::vector<PrefixPosting> FirstSharedGroup(const JoinStore& store) {
  const ItemId* a = store.items(0);
  const ItemId* b = store.items(1);
  for (int t = 0; t < store.k(); ++t) {
    const uint16_t a_rank = store.canonical(0)[t];
    for (int b_rank = 0; b_rank < store.k(); ++b_rank) {
      if (b[b_rank] == a[a_rank]) {
        return {PrefixPosting{0, a_rank, false},
                PrefixPosting{1, static_cast<uint16_t>(b_rank), false}};
      }
    }
  }
  return {PrefixPosting{0, 0, false}, PrefixPosting{1, 0, false}};
}

TEST(PairKernelTest, BoundsAtDistanceAndOneBelow) {
  // Directly, at both kernel widths, and through the nested-loop join: a
  // pair at distance d qualifies under raw_theta = d and not under
  // d - 1. The join decides the pair either with the kernel or with the
  // signature bound, in the group of the pair's first shared item.
  Rng rng(20203);
  for (int k : kSizes) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<ItemId> items = RandomItems(k, rng);
      const Ranking a(10, items);
      const Ranking b(20, Perturb(items, rng));
      const uint32_t d = FootruleDistance(a, b);
      if (d == 0) continue;
      const JoinStore store = PairStore(a, b);
      const PairKernel& kernel = store.kernel();
      const uint32_t unrolled = kernel.WithChunks([&](auto width) {
        return kernel.DistanceAt<decltype(width)::value>(store.items(0),
                                                         store.items(1));
      });
      const uint32_t looped =
          kernel.DistanceAt<0>(store.items(0), store.items(1));
      for (uint32_t distance : {unrolled, looped}) {
        EXPECT_TRUE(distance <= d) << "k " << k;
        EXPECT_FALSE(distance <= d - 1) << "k " << k;
      }
      const std::vector<PrefixPosting> group = FirstSharedGroup(store);
      for (uint32_t bound : {d, d - 1}) {
        LocalJoinOptions options;
        options.store = &store;
        options.raw_theta = bound;
        options.position_filter = false;
        JoinStats stats;
        std::vector<ScoredPair> out;
        LocalNestedLoopJoin(group, options, &out, &stats);
        EXPECT_EQ(stats.verified + stats.signature_filtered, 1u);
        ASSERT_EQ(out.size(), bound == d ? 1u : 0u) << "k " << k;
        if (!out.empty()) {
          EXPECT_EQ(out[0].first, MakeResultPair(10, 20));
          EXPECT_EQ(out[0].second, d);
        }
      }
    }
  }
}

/// Signature bit of `item`, as SignatureOf sets it.
int SignatureBit(ItemId item) {
  return static_cast<int>((uint64_t{item} * 0x9E3779B97F4A7C15ull) >> 57);
}

TEST(SignatureBoundTest, PopcountMatchesBitLoop) {
  Rng rng(20205);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t x = rng.Next();
    const uint64_t y = trial % 5 == 0 ? ~uint64_t{0} : rng.Next() & rng.Next();
    uint32_t expected = 0;
    for (int bit = 0; bit < 64; ++bit) {
      expected += static_cast<uint32_t>((x >> bit) & 1);
      expected += static_cast<uint32_t>((y >> bit) & 1);
    }
    EXPECT_EQ(kernel_internal::PopcountPair(x, y), expected);
  }
  EXPECT_EQ(kernel_internal::PopcountPair(~uint64_t{0}, ~uint64_t{0}), 128u);
  EXPECT_EQ(kernel_internal::PopcountPair(0, 0), 0u);
}

TEST(SignatureBoundTest, NeverExceedsTheDistance) {
  // Both distances, every k, both kernel widths, items 0 and 0xFFFFFFFF
  // included.
  for (Distance distance : {Distance::kFootrule, Distance::kJaccard}) {
    Rng rng(20206);
    for (int k : kSizes) {
      for (int trial = 0; trial < 300; ++trial) {
        const std::vector<ItemId> items = RandomItems(k, rng);
        const Ranking a(0, items);
        const Ranking b(1, trial % 3 == 0 ? RandomItems(k, rng)
                                          : Perturb(items, rng));
        const JoinStore store = PairStore(a, b, distance);
        const uint32_t bound = BoundOf(store, 0, 1);
        EXPECT_LE(bound, ReferenceDistance(distance, a, b)) << "k " << k;
        EXPECT_LE(bound, store.Distance(0, 1)) << "k " << k;
        EXPECT_EQ(bound, BoundOf(store, 1, 0));
      }
    }
  }
}

TEST(SignatureBoundTest, IdenticalRowsGiveZero) {
  Rng rng(20207);
  for (int k : kSizes) {
    const std::vector<ItemId> items = RandomItems(k, rng);
    std::vector<ItemId> reversed(items.rbegin(), items.rend());
    const JoinStore store =
        PairStore(Ranking(0, items), Ranking(1, reversed));
    EXPECT_EQ(BoundOf(store, 0, 0), 0u);
    // Same item set, other order: the signatures cannot tell them apart.
    EXPECT_EQ(BoundOf(store, 0, 1), 0u);
  }
}

TEST(SignatureBoundTest, CollidingItemsStaySound) {
  // Items that share signature bits hide each other's absence: rows
  // built only from items of a few bits are far apart by Footrule but
  // close by signature, and the bound must stay below the distance.
  std::vector<std::vector<ItemId>> by_bit(128);
  auto filled = [&by_bit] {
    for (const std::vector<ItemId>& items : by_bit) {
      if (items.empty()) return false;
    }
    return by_bit[3].size() >= 80 && by_bit[77].size() >= 80;
  };
  for (ItemId item = 0; !filled(); ++item) {
    by_bit[static_cast<size_t>(SignatureBit(item))].push_back(item);
  }
  std::vector<ItemId> one_per_bit(128);
  for (int bit = 0; bit < 128; ++bit) {
    one_per_bit[static_cast<size_t>(bit)] =
        by_bit[static_cast<size_t>(bit)].front();
  }
  for (int k : kSizes) {
    // Disjoint rows on 2k distinct bits: the bound is the distance.
    const Ranking spread_a(
        0, std::vector<ItemId>(one_per_bit.begin(), one_per_bit.begin() + k));
    const Ranking spread_b(1, std::vector<ItemId>(one_per_bit.begin() + 64,
                                                  one_per_bit.begin() + 64 +
                                                      k));
    const JoinStore spread = PairStore(spread_a, spread_b);
    EXPECT_EQ(BoundOf(spread, 0, 1), MaxFootrule(k));
    const JoinStore spread_sets =
        PairStore(spread_a, spread_b, Distance::kJaccard);
    EXPECT_EQ(BoundOf(spread_sets, 0, 1), 2u * k);

    // a: items of bit 3 only; b: disjoint items of bit 3 and bit 77.
    std::vector<ItemId> a_items(by_bit[3].begin(), by_bit[3].begin() + k);
    std::vector<ItemId> b_items;
    for (int r = 0; r < k; ++r) {
      b_items.push_back(r % 2 == 0 ? by_bit[3][static_cast<size_t>(40 + r)]
                                   : by_bit[77][static_cast<size_t>(r)]);
    }
    const Ranking a(0, a_items);
    const Ranking b(1, b_items);
    const JoinStore store = PairStore(a, b);
    const uint32_t bound = BoundOf(store, 0, 1);
    EXPECT_EQ(FootruleDistance(a, b), MaxFootrule(k));
    EXPECT_LE(bound, FootruleDistance(a, b)) << "k " << k;
    EXPECT_EQ(bound, k > 1 ? 2u : 0u) << "k " << k;  // one bit differs
  }
}

TEST(SignatureBoundTest, SeparatelyBuiltStoresAgree) {
  // R and S rows, and query rows, are signed without any shared state:
  // two stores built under different item orders give one row the same
  // signature.
  Rng rng(20208);
  for (int k : kSizes) {
    const Ranking a(0, RandomItems(k, rng));
    const Ranking b(1, Perturb(a.items(), rng));
    const Ranking c(2, RandomItems(k, rng));
    FlatRankings::Builder r_builder(k);
    r_builder.Append(a.id(), a.items().data());
    r_builder.Append(c.id(), c.items().data());
    const FlatRankings r_flat = std::move(r_builder).Build();
    FlatRankings::Builder s_builder(k);
    s_builder.Append(b.id(), b.items().data());
    const FlatRankings s_flat = std::move(s_builder).Build();
    const JoinStore r =
        JoinStore::Build(r_flat, ItemOrder::FromFrequencies(
                                     CountItemFrequencies(r_flat)));
    const JoinStore s = JoinStore::Build(s_flat, ItemOrder());
    const JoinStore both = PairStore(a, b);
    const SignatureBound bound = r.kernel().signature_bound();
    EXPECT_EQ(bound(r.signature(0), s.signature(0)), BoundOf(both, 0, 1));
    const ItemSignature direct = SignatureOf(b.items().data(), k);
    EXPECT_EQ(direct.words[0], s.signature(0).words[0]);
    EXPECT_EQ(direct.words[1], s.signature(0).words[1]);
    EXPECT_LE(bound(r.signature(0), s.signature(0)), FootruleDistance(a, b));
  }
}

}  // namespace
}  // namespace rankjoin

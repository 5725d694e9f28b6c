// The verification kernel of the join store (ranking/join_store.h),
// checked against independent references: the hash-map
// FootruleDistance(const Ranking&, const Ranking&), a naive set overlap,
// and a naive prefix position filter.

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
JoinStore PairStore(const Ranking& a, const Ranking& b) {
  FlatRankings::Builder builder(a.k());
  builder.Append(a.id(), a.items().data());
  builder.Append(b.id(), b.items().data());
  const FlatRankings flat = std::move(builder).Build();
  return JoinStore::Build(flat, ItemOrder());
}

int NaiveOverlap(const Ranking& a, const Ranking& b) {
  int overlap = 0;
  for (ItemId item : a.items()) overlap += b.RankOf(item) >= 0 ? 1 : 0;
  return overlap;
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
      EXPECT_EQ(static_cast<int>(store.Overlap(0, 1)), NaiveOverlap(a, b));
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
    EXPECT_EQ(static_cast<int>(same.Overlap(0, 1)), k);

    // Disjoint, with b's items chosen so that 0 and 0xFFFFFFFF sit in
    // a while b's pad lanes hold 0.
    std::vector<ItemId> other;
    for (int r = 0; r < k; ++r) other.push_back(static_cast<ItemId>(7000 + r));
    const JoinStore disjoint = PairStore(a, Ranking(1, other));
    EXPECT_EQ(disjoint.Distance(0, 1), MaxFootrule(k));
    EXPECT_EQ(disjoint.Overlap(0, 1), 0u);
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

TEST(PairKernelTest, BoundsAtDistanceAndOneBelow) {
  // Through the nested-loop join: a pair at distance d qualifies under
  // raw_theta = d and not under d - 1.
  Rng rng(20203);
  for (int k : kSizes) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<ItemId> items = RandomItems(k, rng);
      const Ranking a(10, items);
      const Ranking b(20, Perturb(items, rng));
      const uint32_t d = FootruleDistance(a, b);
      if (d == 0) continue;
      const JoinStore store = PairStore(a, b);
      const std::vector<PrefixPosting> group = {
          PrefixPosting{0, 0, false}, PrefixPosting{1, 0, false}};
      for (uint32_t bound : {d, d - 1}) {
        LocalJoinOptions options;
        options.store = &store;
        options.raw_theta = bound;
        options.position_filter = false;
        JoinStats stats;
        std::vector<ScoredPair> out;
        LocalNestedLoopJoin(group, options, &out, &stats);
        EXPECT_EQ(stats.verified, 1u);
        ASSERT_EQ(out.size(), bound == d ? 1u : 0u) << "k " << k;
        if (!out.empty()) {
          EXPECT_EQ(out[0].first, MakeResultPair(10, 20));
          EXPECT_EQ(out[0].second, d);
        }
      }
    }
  }
}

TEST(PrefixFilterKernelTest, MatchesNaivePrefixFilter) {
  Rng rng(20204);
  for (int k : kSizes) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<ItemId> items = RandomItems(k, rng);
      const Ranking a(0, items);
      const Ranking b(1, Perturb(items, rng));
      const JoinStore store = PairStore(a, b);
      const PairKernel& kernel = store.kernel();
      const uint32_t raw_theta =
          static_cast<uint32_t>(rng.Uniform(MaxFootrule(k)));
      // Random prefixes, as rank sets.
      const size_t stride = static_cast<size_t>(kernel.stride());
      std::vector<uint32_t> a_prefix(stride, 0);
      std::vector<uint32_t> b_prefix(stride, 0);
      for (int r = 0; r < k; ++r) {
        a_prefix[static_cast<size_t>(r)] = rng.Uniform(2) ? ~0u : 0u;
        b_prefix[static_cast<size_t>(r)] = rng.Uniform(2) ? ~0u : 0u;
      }
      bool expected = false;
      for (int r = 0; r < k; ++r) {
        const int s = b.RankOf(a.ItemAt(r));
        if (s < 0 || !a_prefix[static_cast<size_t>(r)] ||
            !b_prefix[static_cast<size_t>(s)]) {
          continue;
        }
        expected |= !PositionFilterPasses(r, s, raw_theta);
      }
      PrefixFilterKernel filter(kernel, raw_theta);
      filter.SetOuter(store.items(0), a_prefix.data());
      const PairVerdict verdict = kernel.WithChunks([&](auto width) {
        return filter.CheckAt<decltype(width)::value>(store.items(1),
                                                      b_prefix.data());
      });
      EXPECT_EQ(verdict.filtered, expected) << "k " << k;
      EXPECT_EQ(verdict.distance, FootruleDistance(a, b));
      if (!filter.can_fail()) {
        EXPECT_FALSE(verdict.filtered);
      }
    }
  }
}

}  // namespace
}  // namespace rankjoin

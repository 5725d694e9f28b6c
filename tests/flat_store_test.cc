#include "ranking/flat_rankings.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/io.h"
#include "minispark/serde.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"
#include "tests/test_util.h"

namespace rankjoin {
namespace {

using testutil::SmallSkewedDataset;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/rankjoin_flat_" + name;
}

// ---------------------------------------------------------------------
// Store construction and views
// ---------------------------------------------------------------------

TEST(FlatRankingsTest, FromRankingsMirrorsRankingVector) {
  RankingDataset ds = SmallSkewedDataset(7, 64, 6);
  FlatRankings flat = FlatRankings::FromRankings(ds.k, ds.rankings);
  ASSERT_EQ(flat.size(), ds.size());
  ASSERT_EQ(flat.k(), ds.k);
  for (size_t i = 0; i < ds.size(); ++i) {
    RankingView v = flat.view(i);
    EXPECT_EQ(v.id, ds.rankings[i].id());
    EXPECT_EQ(static_cast<int>(v.k), ds.k);
    for (int r = 0; r < ds.k; ++r) {
      EXPECT_EQ(v.ItemAt(r), ds.rankings[i].ItemAt(r));
    }
  }
}

TEST(FlatRankingsTest, ViewRankOfMatchesRanking) {
  RankingDataset ds = SmallSkewedDataset(8, 16, 10);
  const FlatRankings& flat = ds.store();
  for (size_t i = 0; i < ds.size(); ++i) {
    RankingView v = flat.view(i);
    for (int r = 0; r < ds.k; ++r) {
      EXPECT_EQ(v.RankOf(v.ItemAt(r)), r);
    }
    EXPECT_EQ(v.RankOf(999999), -1);
  }
}

TEST(FlatRankingsTest, BuilderAppendsInOrder) {
  FlatRankings::Builder builder(3);
  builder.Reserve(2);
  const ItemId a[] = {5, 1, 9};
  const ItemId b[] = {2, 8, 4};
  builder.Append(10, a);
  builder.Append(11, b);
  EXPECT_EQ(builder.size(), 2u);
  FlatRankings flat = std::move(builder).Build();
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat.view(0).id, 10u);
  EXPECT_EQ(flat.view(1).ItemAt(2), 4u);
  EXPECT_TRUE(flat.Validate().ok());
}

TEST(FlatRankingsTest, ToRankingRoundTrip) {
  RankingDataset ds = SmallSkewedDataset(9, 32, 5);
  const FlatRankings& flat = ds.store();
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(flat.ToRanking(i), ds.rankings[i]);
  }
}

TEST(FlatRankingsTest, ValidateCatchesDuplicateItems) {
  FlatRankings::Builder builder(3);
  const ItemId bad[] = {7, 7, 1};
  builder.Append(0, bad);
  FlatRankings flat = std::move(builder).Build();
  Status first = flat.Validate();
  EXPECT_FALSE(first.ok());
  // Memoized: the second call reports the same failure.
  EXPECT_EQ(flat.Validate().code(), first.code());
}

TEST(ScratchItemSetTest, DetectsDuplicatesAcrossGenerations) {
  internal::ScratchItemSet set;
  for (int round = 0; round < 3; ++round) {
    set.Begin(4);
    EXPECT_TRUE(set.Insert(1));
    EXPECT_TRUE(set.Insert(2));
    EXPECT_FALSE(set.Insert(1));  // duplicate within this generation
  }
  const ItemId distinct[] = {1, 2, 3};
  const ItemId dup[] = {1, 2, 1};
  EXPECT_TRUE(internal::ItemsDistinct(distinct, 3));
  EXPECT_FALSE(internal::ItemsDistinct(dup, 3));
}

// ---------------------------------------------------------------------
// RankingDataset store plumbing
// ---------------------------------------------------------------------

TEST(RankingDatasetStoreTest, StoreIsCachedAndRebuiltOnChange) {
  RankingDataset ds = SmallSkewedDataset(10, 20, 4);
  const FlatRankings* first = &ds.store();
  EXPECT_EQ(first, &ds.store());  // cached
  ds.rankings.push_back(Ranking(999, {90, 91, 92, 93}));
  const FlatRankings& rebuilt = ds.store();
  EXPECT_EQ(rebuilt.size(), ds.rankings.size());
  EXPECT_EQ(rebuilt.view(rebuilt.size() - 1).id, 999u);
}

TEST(RankingDatasetStoreTest, ValidateRoutesThroughStore) {
  RankingDataset ds;
  ds.k = 3;
  ds.rankings.push_back(Ranking(0, {1, 2, 2}));
  EXPECT_FALSE(ds.Validate().ok());

  RankingDataset ok = SmallSkewedDataset(11, 10, 5);
  EXPECT_TRUE(ok.Validate().ok());
}

// ---------------------------------------------------------------------
// Columnar file format (RKJC)
// ---------------------------------------------------------------------

TEST(ColumnarIoTest, WriteMapRoundTrip) {
  RankingDataset original = SmallSkewedDataset(12, 200, 8);
  const std::string path = TempPath("roundtrip.rkjc");
  ASSERT_TRUE(WriteFlatRankings(path, original).ok());

  auto mapped = MapFlatRankings(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  // Mmap-born: the Ranking vector stays empty, the store serves the
  // columns.
  EXPECT_TRUE(mapped->rankings.empty());
  EXPECT_TRUE(mapped->has_store());
  ASSERT_EQ(mapped->size(), original.size());
  ASSERT_EQ(mapped->k, original.k);

  const FlatRankings& flat = mapped->store();
  const FlatRankings& truth = original.store();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(flat.view(i), truth.view(i));
  }
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(flat.ToRanking(i), original.rankings[i]);
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.rkjc");
  std::ofstream(path) << "NOPE this is not a columnar ranking file at all";
  auto mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsTruncatedFile) {
  RankingDataset ds = SmallSkewedDataset(13, 50, 6);
  const std::string path = TempPath("trunc.rkjc");
  ASSERT_TRUE(WriteFlatRankings(path, ds).ok());

  // Re-write only a prefix: the header promises more column bytes than
  // the file holds.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  auto mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);

  // A file shorter than the header is also a truncation error.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, 10);
  auto short_header = MapFlatRankings(path);
  ASSERT_FALSE(short_header.ok());
  EXPECT_EQ(short_header.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, RejectsMissingFile) {
  auto mapped = MapFlatRankings("/nonexistent/dir/data.rkjc");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
}

TEST(ColumnarIoTest, MapValidatesDistinctItems) {
  // Hand-craft a file whose item column violates the distinct-items
  // invariant; the loader must reject it at map time.
  RankingDataset ds;
  ds.k = 3;
  ds.rankings.push_back(Ranking(0, {1, 2, 3}));
  const std::string path = TempPath("invalid.rkjc");
  ASSERT_TRUE(WriteFlatRankings(path, ds).ok());
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  // Items column starts at 20 (header) + 4 (one id); duplicate item 0
  // over item 1.
  file.seekp(20 + 4);
  const uint32_t dup = 1;
  file.write(reinterpret_cast<const char*>(&dup), sizeof(dup));
  file.seekp(20 + 8);
  file.write(reinterpret_cast<const char*>(&dup), sizeof(dup));
  file.close();
  auto mapped = MapFlatRankings(path);
  EXPECT_FALSE(mapped.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Join store
// ---------------------------------------------------------------------

TEST(JoinStoreTest, RowsArePaddedRankOrderCopies) {
  for (int k : {1, 4, 5, 10, 25}) {
    RankingDataset ds = SmallSkewedDataset(15, 40, k);
    const JoinStore store = JoinStore::Build(ds.store(), ItemOrder());
    ASSERT_EQ(store.size(), ds.size());
    ASSERT_EQ(store.k(), k);
    const int stride = store.kernel().stride();
    EXPECT_EQ(stride % 4, 0);
    EXPECT_GE(stride, k);
    EXPECT_LT(stride, k + 4);
    for (RowIndex row = 0; row < store.size(); ++row) {
      EXPECT_EQ(store.id(row), ds.rankings[row].id());
      for (int r = 0; r < k; ++r) {
        EXPECT_EQ(store.items(row)[r], ds.rankings[row].ItemAt(r));
      }
      EXPECT_EQ(store.RowOf(store.id(row)), row);
    }
  }
}

TEST(JoinStoreTest, CanonicalOrderMatchesMakeOrdered) {
  RankingDataset ds = SmallSkewedDataset(16, 80, 10);
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(ds.store()));
  const JoinStore store = JoinStore::Build(ds.store(), order);
  for (RowIndex row = 0; row < store.size(); ++row) {
    const OrderedRanking ordered = MakeOrdered(ds.rankings[row], order);
    for (int t = 0; t < store.k(); ++t) {
      EXPECT_EQ(store.canonical(row)[t], ordered.canonical[t].rank);
    }
  }
}

TEST(JoinStoreTest, IdLookupIsSizedByRowCount) {
  // Ids near 2^32 must not size anything: the lookup is sized by the
  // rows (IdIndex).
  FlatRankings::Builder builder(3);
  const ItemId a[] = {1, 2, 3};
  const ItemId b[] = {3, 2, 1};
  const ItemId c[] = {7, 8, 9};
  builder.Append(7, a);
  builder.Append(0xFFFFFFF0u, b);
  builder.Append(0xFFFFFFFFu, c);
  const FlatRankings flat = std::move(builder).Build();
  const JoinStore store = JoinStore::Build(flat, ItemOrder());
  EXPECT_EQ(store.RowOf(7), 0u);
  EXPECT_EQ(store.RowOf(0xFFFFFFF0u), 1u);
  EXPECT_EQ(store.RowOf(0xFFFFFFFFu), 2u);
  EXPECT_EQ(store.Distance(0, 1), 4u);  // ranks 0<->2 swap: 2 + 0 + 2
}

// ---------------------------------------------------------------------
// View serde
// ---------------------------------------------------------------------

TEST(RankingViewSerdeTest, EncodesHeaderOnly) {
  RankingDataset ds = SmallSkewedDataset(14, 4, 10);
  RankingView v = ds.store().view(2);

  using Serde = minispark::Serde<RankingView>;
  EXPECT_EQ(Serde::Size(v), sizeof(RankingView));
  std::string buffer;
  Serde::Write(v, &buffer);
  EXPECT_EQ(buffer.size(), sizeof(RankingView));

  RankingView back;
  const char* p = buffer.data();
  Serde::Read(&p, buffer.data() + buffer.size(), &back);
  EXPECT_EQ(p, buffer.data() + buffer.size());
  EXPECT_EQ(back, v);
  EXPECT_EQ(back.items, v.items);  // zero-copy: same column slice
}

}  // namespace
}  // namespace rankjoin

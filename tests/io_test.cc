#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "data/generator.h"

namespace rankjoin {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/rankjoin_io_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(IoTest, RoundTrip) {
  GeneratorOptions options;
  options.num_rankings = 120;
  options.k = 7;
  options.domain_size = 80;
  RankingDataset original = GenerateDataset(options);

  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteRankings(path, original).ok());
  auto loaded = ReadRankings(path, 7);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->rankings[i], original.rankings[i]);
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, ParsesExplicitIdsAndComments) {
  const std::string path = TempPath("ids.txt");
  WriteFile(path,
            "# sample dataset (Table 2)\n"
            "1: 2 5 4 3 1\n"
            "\n"
            "2: 1 4 5 9 0\n");
  auto ds = ReadRankings(path, 5);
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->rankings[0].id(), 1u);
  EXPECT_EQ(ds->rankings[0].ItemAt(0), 2u);
  EXPECT_EQ(ds->rankings[1].id(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, AssignsLineIdsWithoutPrefix) {
  const std::string path = TempPath("noids.txt");
  WriteFile(path, "1 2 3\n4 5 6\n");
  auto ds = ReadRankings(path, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->rankings[0].id(), 0u);
  EXPECT_EQ(ds->rankings[1].id(), 1u);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsMissingFile) {
  auto ds = ReadRankings("/nonexistent/path/data.txt", 5);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, RejectsWrongLength) {
  const std::string path = TempPath("short.txt");
  WriteFile(path, "1 2 3\n");
  auto ds = ReadRankings(path, 5);
  EXPECT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("expected 5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsDuplicateItems) {
  const std::string path = TempPath("dup.txt");
  WriteFile(path, "1 2 2\n");
  auto ds = ReadRankings(path, 3);
  EXPECT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("duplicate"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsNegativeItems) {
  const std::string path = TempPath("neg.txt");
  WriteFile(path, "1 -2 3\n");
  auto ds = ReadRankings(path, 3);
  EXPECT_FALSE(ds.ok());
  std::remove(path.c_str());
}

/// Loading `content` at k = 3 fails with an IoError whose message names
/// line `line` and holds `token`.
void ExpectRejected(const std::string& path, const std::string& content,
                    int line, const std::string& token) {
  std::ofstream(path) << content;
  auto ds = ReadRankings(path, 3);
  ASSERT_FALSE(ds.ok()) << content;
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
  const std::string& message = ds.status().message();
  EXPECT_NE(message.find(path + ":" + std::to_string(line) + ":"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("'" + token + "'"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsItemsBeyond32Bits) {
  // 4294967297 used to wrap to item 1, so this row equalled row 0.
  ExpectRejected(TempPath("wide_item.txt"), "0: 1 2 3\n1: 4294967297 2 3\n",
                 2, "4294967297");
}

TEST_F(IoTest, RejectsSignedIds) {
  // std::stoul took "-1" as id 4294967295.
  ExpectRejected(TempPath("signed_id.txt"), "-1: 1 2 3\n", 1, "-1");
  ExpectRejected(TempPath("plus_id.txt"), "+1: 1 2 3\n", 1, "+1");
}

TEST_F(IoTest, RejectsIdsBeyond32Bits) {
  // 4294967296 used to wrap to id 0 and fail as a repeated id.
  const std::string path = TempPath("wide_id.txt");
  std::ofstream(path) << "0: 1 2 3\n4294967296: 4 5 6\n";
  auto ds = ReadRankings(path, 3);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().message().find("more than once"), std::string::npos);
  std::remove(path.c_str());
  ExpectRejected(path, "0: 1 2 3\n4294967296: 4 5 6\n", 2, "4294967296");
}

TEST_F(IoTest, RejectsFractionsAndSuffixes) {
  ExpectRejected(TempPath("fraction.txt"), "0: 1 2 3.5\n", 1, "3.5");
  ExpectRejected(TempPath("suffix.txt"), "0: 1 2 3x\n", 1, "3x");
  ExpectRejected(TempPath("id_suffix.txt"), "0x: 1 2 3\n", 1, "0x");
  ExpectRejected(TempPath("no_id.txt"), ": 1 2 3\n", 1, "");
}

TEST_F(IoTest, RejectsAnImplicitIdAfterTheLargest) {
  // The next implicit id used to wrap to 0.
  const std::string path = TempPath("last_id.txt");
  std::ofstream(path) << "4294967295: 1 2 3\n";
  auto ds = ReadRankings(path, 3);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->rankings[0].id(), 4294967295u);
  std::ofstream(path) << "4294967295: 1 2 3\n4 5 6\n";
  ds = ReadRankings(path, 3);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find(path + ":2:"), std::string::npos)
      << ds.status().message();
  std::remove(path.c_str());
}

/// Writes a columnar (RKJC) file: the 20-byte header with the given k
/// and count, then `payload_bytes` zero bytes.
void WriteColumnarHeader(const std::string& path, uint32_t k, uint64_t count,
                         size_t payload_bytes) {
  std::string bytes = "RKJC";
  auto put_u32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes += static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  put_u32(1);  // version
  put_u32(k);
  put_u32(static_cast<uint32_t>(count & 0xffffffffULL));
  put_u32(static_cast<uint32_t>(count >> 32));
  bytes.append(payload_bytes, '\0');
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST_F(IoTest, ColumnarHeaderWithHugeKIsRejected) {
  // k = 0xFFFFFFFF and count = 2^30 once wrapped the size check to 20
  // bytes, and the loader then spun over the 88-byte file.
  const std::string path = TempPath("huge_k.rkjc");
  WriteColumnarHeader(path, 0xFFFFFFFFu, uint64_t{1} << 30, 68);
  auto mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);

  // Ranks are 16-bit: one past the largest k is rejected as well.
  WriteColumnarHeader(path, 65536, 0, 0);
  mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(IoTest, ColumnarFileWithRepeatedIdIsRejected) {
  RankingDataset ds;
  ds.k = 4;
  ds.rankings = {Ranking(5, {1, 2, 3, 4}), Ranking(7, {1, 2, 4, 3}),
                 Ranking(5, {1, 2, 3, 4})};
  const std::string path = TempPath("repeated_id.rkjc");
  ASSERT_TRUE(WriteFlatRankings(path, ds).ok());
  auto mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("ranking id 5"), std::string::npos)
      << mapped.status();
  std::remove(path.c_str());
}

TEST_F(IoTest, ColumnarHeaderWithWrappingCountIsTruncation) {
  // 20 + count * (4 + 4k) wraps past 2^64 for this count; the file is
  // still just a header plus a few bytes.
  const std::string path = TempPath("huge_count.rkjc");
  WriteColumnarHeader(path, 10, uint64_t{1} << 62, 64);
  auto mapped = MapFlatRankings(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(PreprocessSetsTest, CutsToFirstKDistinctTokens) {
  std::vector<std::vector<ItemId>> records = {
      {5, 5, 1, 2, 9, 9, 3},  // first 4 distinct tokens: 5 1 2 9
  };
  RankingDataset ds = PreprocessSets(records, 4);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.rankings[0].items(), (std::vector<ItemId>{5, 1, 2, 9}));
}

TEST(PreprocessSetsTest, DropsShortRecords) {
  std::vector<std::vector<ItemId>> records = {{1, 2}, {1, 2, 3, 4}};
  RankingDataset ds = PreprocessSets(records, 3);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.rankings[0].items(), (std::vector<ItemId>{1, 2, 3}));
}

TEST(PreprocessSetsTest, RemovesDuplicateRecords) {
  std::vector<std::vector<ItemId>> records = {
      {1, 2, 3}, {1, 2, 3}, {3, 2, 1}};
  RankingDataset ds = PreprocessSets(records, 3);
  EXPECT_EQ(ds.size(), 2u);
}

TEST(PreprocessSetsTest, CutCanCreateDistanceZeroPairs) {
  // The paper notes (Section 7) that cutting records to length k can
  // produce identical rankings even after duplicate-record removal.
  std::vector<std::vector<ItemId>> records = {{1, 2, 3, 4}, {1, 2, 3, 5}};
  RankingDataset ds = PreprocessSets(records, 3);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.rankings[0].items(), ds.rankings[1].items());
}

TEST(WriteResultPairsTest, SortsOutput) {
  const std::string path = testing::TempDir() + "/rankjoin_pairs.txt";
  std::vector<std::pair<RankingId, RankingId>> pairs = {{3, 4}, {1, 2}};
  ASSERT_TRUE(WriteResultPairs(path, pairs).ok());
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "1 2");
  EXPECT_EQ(line2, "3 4");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rankjoin

#include "data/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <system_error>
#include <unordered_set>

namespace rankjoin {

namespace {

/// The whitespace-separated tokens of `text`.
std::vector<std::string_view> Tokens(std::string_view text) {
  constexpr std::string_view kSpace = " \t\r\n\v\f";
  std::vector<std::string_view> tokens;
  size_t begin = text.find_first_not_of(kSpace);
  while (begin != std::string_view::npos) {
    const size_t end = std::min(text.find_first_of(kSpace, begin),
                                text.size());
    tokens.push_back(text.substr(begin, end - begin));
    begin = text.find_first_not_of(kSpace, end);
  }
  return tokens;
}

/// Parses `token` as a whole unsigned decimal number below 2^32: no
/// sign, fraction, suffix or wrap-around.
bool ParseUint32(std::string_view token, uint32_t* value) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *value);
  return error == std::errc() && stop == end;
}

}  // namespace

Result<RankingDataset> ReadRankings(const std::string& path, int k) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  RankingDataset dataset;
  dataset.k = k;
  std::string line;
  size_t line_number = 0;
  // The id of the next line without one; 2^32 once id 4294967295 is
  // taken, which no line may then need.
  uint64_t next_id = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    auto error = [&](const std::string& what) {
      return Status::IoError(path + ":" + std::to_string(line_number) +
                             ": " + what);
    };

    RankingId id = 0;
    std::string_view items_part = line;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      const std::vector<std::string_view> id_part =
          Tokens(items_part.substr(0, colon));
      if (id_part.size() != 1 || !ParseUint32(id_part[0], &id)) {
        return error("ranking id '" +
                     std::string(id_part.empty() ? "" : id_part[0]) +
                     "' is not an unsigned 32-bit integer");
      }
      items_part = items_part.substr(colon + 1);
    } else if (next_id > std::numeric_limits<RankingId>::max()) {
      return error("a ranking without an id follows id " +
                   std::to_string(next_id - 1) + ", the largest 32-bit id");
    } else {
      id = static_cast<RankingId>(next_id);
    }

    std::vector<ItemId> items;
    for (std::string_view token : Tokens(items_part)) {
      ItemId item = 0;
      if (!ParseUint32(token, &item)) {
        return error("item '" + std::string(token) +
                     "' is not an unsigned 32-bit integer");
      }
      items.push_back(item);
    }
    if (static_cast<int>(items.size()) != k) {
      return error("expected " + std::to_string(k) + " items, found " +
                   std::to_string(items.size()));
    }
    Ranking ranking(id, std::move(items));
    if (!ranking.IsValid()) {
      return error("duplicate item in ranking");
    }
    dataset.rankings.push_back(std::move(ranking));
    next_id = std::max<uint64_t>(next_id, id) + 1;
  }
  return dataset;
}

Status WriteRankings(const std::string& path, const RankingDataset& dataset) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const Ranking& r : dataset.rankings) {
    out << r.id() << ':';
    for (ItemId item : r.items()) out << ' ' << item;
    out << '\n';
  }
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

RankingDataset PreprocessSets(const std::vector<std::vector<ItemId>>& records,
                              int k) {
  RankingDataset dataset;
  dataset.k = k;
  std::unordered_set<std::string> seen_records;
  RankingId next_id = 0;
  for (const auto& record : records) {
    // Duplicate-record removal operates on the full record, as in [10].
    std::string fingerprint;
    fingerprint.reserve(record.size() * sizeof(ItemId));
    for (ItemId item : record) {
      fingerprint.append(reinterpret_cast<const char*>(&item), sizeof(item));
    }
    if (!seen_records.insert(fingerprint).second) continue;

    // Cut to the first k distinct tokens.
    std::vector<ItemId> items;
    std::unordered_set<ItemId> present;
    for (ItemId item : record) {
      if (static_cast<int>(items.size()) == k) break;
      if (present.insert(item).second) items.push_back(item);
    }
    if (static_cast<int>(items.size()) < k) continue;
    dataset.rankings.emplace_back(next_id++, std::move(items));
  }
  return dataset;
}

Status WriteResultPairs(
    const std::string& path,
    const std::vector<std::pair<RankingId, RankingId>>& pairs) {
  std::vector<std::pair<RankingId, RankingId>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const auto& [a, b] : sorted) out << a << ' ' << b << '\n';
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

namespace {

constexpr char kFlatMagic[4] = {'R', 'K', 'J', 'C'};
constexpr uint32_t kFlatVersion = 1;
constexpr size_t kFlatHeaderBytes = 20;  // magic + version + k + count
// Largest k a columnar file may declare: ranks must fit in 16 bits.
constexpr uint32_t kMaxFlatK = 65535;

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

/// Keeps an mmap region (and its fd-independent lifetime) alive for as
/// long as any FlatRankings wraps it.
struct MmapRegion {
  void* addr = nullptr;
  size_t bytes = 0;
  ~MmapRegion() {
    if (addr != nullptr) munmap(addr, bytes);
  }
};

}  // namespace

Status WriteFlatRankings(const std::string& path,
                         const RankingDataset& dataset) {
  const FlatRankings& flat = dataset.store();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  char header[kFlatHeaderBytes];
  std::memcpy(header, kFlatMagic, 4);
  PutU32(header + 4, kFlatVersion);
  PutU32(header + 8, static_cast<uint32_t>(flat.k()));
  const uint64_t count = flat.size();
  PutU32(header + 12, static_cast<uint32_t>(count & 0xffffffffULL));
  PutU32(header + 16, static_cast<uint32_t>(count >> 32));
  out.write(header, sizeof(header));
  // The in-memory columns are little-endian uint32 on every platform we
  // build for; write them as-is (column writes, no per-record encode).
  out.write(reinterpret_cast<const char*>(flat.ids()),
            static_cast<std::streamsize>(count * sizeof(RankingId)));
  out.write(reinterpret_cast<const char*>(flat.items()),
            static_cast<std::streamsize>(count * flat.k() * sizeof(ItemId)));
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<RankingDataset> MapFlatRankings(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kFlatHeaderBytes) {
    close(fd);
    return Status::IoError(path + ": truncated columnar file (" +
                           std::to_string(file_bytes) + " bytes, header is " +
                           std::to_string(kFlatHeaderBytes) + ")");
  }
  void* addr = mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path);
  }
  auto region = std::make_shared<MmapRegion>();
  region->addr = addr;
  region->bytes = file_bytes;

  const char* base = static_cast<const char*>(addr);
  if (std::memcmp(base, kFlatMagic, 4) != 0) {
    return Status::InvalidArgument(path + ": bad magic (not a columnar " +
                                   "ranking file)");
  }
  const uint32_t version = GetU32(base + 4);
  if (version != kFlatVersion) {
    return Status::InvalidArgument(path + ": unsupported columnar version " +
                                   std::to_string(version));
  }
  const uint32_t k = GetU32(base + 8);
  const uint64_t count = static_cast<uint64_t>(GetU32(base + 12)) |
                         static_cast<uint64_t>(GetU32(base + 16)) << 32;
  if (k == 0) {
    return Status::InvalidArgument(path + ": columnar file with k = 0");
  }
  // Ranks are 16-bit (ItemEntry::rank, the join store's canonical order).
  if (k > kMaxFlatK) {
    return Status::InvalidArgument(path + ": columnar file with k = " +
                                   std::to_string(k) + " (at most " +
                                   std::to_string(kMaxFlatK) + ")");
  }
  // Compare the count with what the file can hold instead of computing
  // the byte size it implies: a crafted count must not wrap the check.
  const uint64_t row_bytes =
      sizeof(RankingId) + static_cast<uint64_t>(k) * sizeof(ItemId);
  if (count > (file_bytes - kFlatHeaderBytes) / row_bytes) {
    return Status::IoError(path + ": truncated columnar file (" +
                           std::to_string(file_bytes) + " bytes hold " +
                           std::to_string((file_bytes - kFlatHeaderBytes) /
                                          row_bytes) +
                           " rankings of k = " + std::to_string(k) +
                           ", header says " + std::to_string(count) + ")");
  }
  // Both offsets are 4-byte aligned (20 and 20 + 4*count) on a
  // page-aligned base, so the columns are readable in place.
  const RankingId* ids =
      reinterpret_cast<const RankingId*>(base + kFlatHeaderBytes);
  const ItemId* items = reinterpret_cast<const ItemId*>(
      base + kFlatHeaderBytes + count * sizeof(RankingId));
  auto flat = std::make_shared<const FlatRankings>(FlatRankings::Wrap(
      static_cast<int>(k), static_cast<size_t>(count), ids, items,
      std::move(region)));
  RANKJOIN_RETURN_NOT_OK(flat->Validate());
  RankingDataset dataset;
  dataset.k = static_cast<int>(k);
  dataset.AttachStore(std::move(flat));
  return dataset;
}

}  // namespace rankjoin

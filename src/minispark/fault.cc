#include "minispark/fault.h"

#include <array>
#include <cstdlib>
#include <vector>

namespace rankjoin::minispark {
namespace {

/// splitmix64 finalizer — the avalanche step the deterministic draws
/// chain. (Same mixer the Rng seeding in common/random.h uses; repeated
/// here so the injector has no dependency on the RNG's stream state.)
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over the stage name. std::hash<std::string> is not stable
/// across standard libraries; the fault schedule must be.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Splits `text` on `sep`, dropping empty pieces.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string piece;
  for (char c : text) {
    if (c == sep) {
      if (!piece.empty()) out.push_back(std::move(piece));
      piece.clear();
    } else {
      piece += c;
    }
  }
  if (!piece.empty()) out.push_back(std::move(piece));
  return out;
}

Status ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    return Status::InvalidArgument("fault spec: bad number '" + text + "'");
  }
  *out = parsed;
  return Status::OK();
}

Status ParseUint(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || text.empty()) {
    return Status::InvalidArgument("fault spec: bad integer '" + text + "'");
  }
  *out = static_cast<uint64_t>(parsed);
  return Status::OK();
}

Status ParseProbability(const std::string& text, double* out) {
  RANKJOIN_RETURN_NOT_OK(ParseDouble(text, out));
  if (*out < 0.0 || *out > 1.0) {
    return Status::InvalidArgument("fault spec: probability '" + text +
                                   "' outside [0, 1]");
  }
  return Status::OK();
}

/// Hash-site discriminators: distinct constants keep the fault
/// kinds' schedules independent even at identical coordinates.
constexpr uint64_t kSiteTaskThrow = 0x7461736b5f746872ull;
constexpr uint64_t kSiteSpillCorrupt = 0x7370696c6c5f6372ull;
constexpr uint64_t kSiteSpillEnospc = 0x7370696c6c5f6e6full;
constexpr uint64_t kSiteCkptCorrupt = 0x636b70745f637272ull;

}  // namespace

Result<FaultSpec> ParseFaultSpec(const std::string& text) {
  FaultSpec spec;
  for (const std::string& segment : Split(text, ';')) {
    const size_t colon = segment.find(':');
    const std::string head = segment.substr(0, colon);
    // `seed=N` is a bare key=value segment, no fault name.
    if (colon == std::string::npos) {
      const size_t eq = head.find('=');
      if (eq == std::string::npos || head.substr(0, eq) != "seed") {
        return Status::InvalidArgument("fault spec: unknown segment '" +
                                       segment + "'");
      }
      RANKJOIN_RETURN_NOT_OK(ParseUint(head.substr(eq + 1), &spec.seed));
      continue;
    }
    double* p = nullptr;
    if (head == "task_throw") {
      p = &spec.task_throw_p;
    } else if (head == "spill_corrupt") {
      p = &spec.spill_corrupt_p;
    } else if (head == "spill_enospc") {
      p = &spec.spill_enospc_p;
    } else if (head == "checkpoint_corrupt") {
      p = &spec.checkpoint_corrupt_p;
    } else if (head != "proc_kill_after") {
      return Status::InvalidArgument("fault spec: unknown fault '" + head +
                                     "'");
    }
    for (const std::string& kv : Split(segment.substr(colon + 1), ',')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault spec: expected key=value, got '" +
                                       kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "p" && p != nullptr) {
        RANKJOIN_RETURN_NOT_OK(ParseProbability(value, p));
      } else if (key == "n" && head == "proc_kill_after") {
        uint64_t n = 0;
        RANKJOIN_RETURN_NOT_OK(ParseUint(value, &n));
        spec.proc_kill_after = static_cast<int64_t>(n);
      } else {
        return Status::InvalidArgument("fault spec: unknown key '" + key +
                                       "' for '" + head + "'");
      }
    }
  }
  return spec;
}

double FaultInjector::Draw(uint64_t site, uint64_t a, uint64_t b, uint64_t c,
                           uint64_t d) const {
  uint64_t x = Mix64(spec_.seed ^ site);
  x = Mix64(x ^ a);
  x = Mix64(x ^ b);
  x = Mix64(x ^ c);
  x = Mix64(x ^ d);
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

bool FaultInjector::TaskThrow(const std::string& stage, int task,
                              uint64_t attempt) {
  if (spec_.task_throw_p <= 0.0) return false;
  const bool fire = Draw(kSiteTaskThrow, Fnv1a(stage),
                         static_cast<uint64_t>(task), attempt,
                         0) < spec_.task_throw_p;
  if (fire && counters_ != nullptr) {
    counters_->Add("fault.task_throw.injected", 1);
  }
  return fire;
}

bool FaultInjector::SpillCorrupt(uint64_t shuffle_id, int map_task,
                                 uint64_t run, int bucket) {
  if (spec_.spill_corrupt_p <= 0.0) return false;
  const bool fire = Draw(kSiteSpillCorrupt, shuffle_id,
                         static_cast<uint64_t>(map_task), run,
                         static_cast<uint64_t>(bucket)) < spec_.spill_corrupt_p;
  if (fire && counters_ != nullptr) {
    counters_->Add("fault.spill_corrupt.injected", 1);
  }
  return fire;
}

bool FaultInjector::SpillEnospc(uint64_t shuffle_id, int map_task,
                                uint64_t run, int bucket) {
  if (spec_.spill_enospc_p <= 0.0) return false;
  const bool fire = Draw(kSiteSpillEnospc, shuffle_id,
                         static_cast<uint64_t>(map_task), run,
                         static_cast<uint64_t>(bucket)) < spec_.spill_enospc_p;
  if (fire && counters_ != nullptr) {
    counters_->Add("fault.spill_enospc.injected", 1);
  }
  return fire;
}

bool FaultInjector::CheckpointCorrupt(uint64_t fingerprint,
                                      uint64_t occurrence, int partition) {
  if (spec_.checkpoint_corrupt_p <= 0.0) return false;
  const bool fire =
      Draw(kSiteCkptCorrupt, fingerprint, occurrence,
           static_cast<uint64_t>(partition), 0) < spec_.checkpoint_corrupt_p;
  if (fire && counters_ != nullptr) {
    counters_->Add("fault.checkpoint_corrupt.injected", 1);
  }
  return fire;
}

uint32_t Crc32(const char* data, size_t n) {
  // Slicing-by-8 CRC-32 (reflected IEEE polynomial 0xEDB88320).
  // table[0] is the classic byte-at-a-time table; table[k] folds a
  // byte that sits k positions deeper into the stream, so the main
  // loop consumes 8 bytes per iteration with independent lookups.
  // This sits on the spill hot path (every run is checksummed on
  // write and re-verified on read), where byte-at-a-time CRC was the
  // dominant cost of integrity checking.
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    // Unaligned-safe 8-byte fetch; byte order handled explicitly.
    uint32_t lo = static_cast<uint32_t>(p[0]) |
                  static_cast<uint32_t>(p[1]) << 8 |
                  static_cast<uint32_t>(p[2]) << 16 |
                  static_cast<uint32_t>(p[3]) << 24;
    const uint32_t hi = static_cast<uint32_t>(p[4]) |
                        static_cast<uint32_t>(p[5]) << 8 |
                        static_cast<uint32_t>(p[6]) << 16 |
                        static_cast<uint32_t>(p[7]) << 24;
    lo ^= crc;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace rankjoin::minispark

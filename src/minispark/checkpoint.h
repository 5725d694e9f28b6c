#ifndef RANKJOIN_MINISPARK_CHECKPOINT_H_
#define RANKJOIN_MINISPARK_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "minispark/fault.h"
#include "minispark/serde.h"
#include "minispark/trace.h"

namespace rankjoin::minispark {

class TelemetryHub;  // telemetry.h; only checkpoint call sites need it

/// What the engine does when a spill or checkpoint write fails (real
/// ENOSPC / short write, or an injected `spill_enospc` fault):
///
/// - kDropCheckpoints (default): stop writing checkpoints for the rest
///   of the job; spills additionally degrade to resident-only buffering
///   (the pre-existing MarkSpillDegraded path). The job keeps running
///   and stays correct — it just loses durability / the disk overflow
///   valve.
/// - kFail: the job fails with a structured IoError Status instead of
///   degrading — for deployments where silently losing durability is
///   worse than losing the run.
enum class DiskPressurePolicy {
  kDropCheckpoints = 0,
  kFail,
};

const char* DiskPressurePolicyName(DiskPressurePolicy policy);

/// Whether a checkpoint of T is valid ACROSS processes. Stricter than
/// has_serde_v: the in-process Serde round-trips raw pointers inside
/// trivially-copyable records (RankingView::items and friends) as plain
/// values, which is fine for spill files that never outlive the process
/// but poison for a checkpoint a *different* process restores.
/// Only arithmetic/enum scalars and std::string/pair/vector
/// compositions thereof default to portable; a custom record type must
/// opt in explicitly (specialize next to the type) after verifying it
/// holds no addresses.
template <typename T, typename Enable = void>
struct CheckpointPortable : std::false_type {};

template <typename T>
struct CheckpointPortable<
    T, std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>>
    : std::true_type {};

template <>
struct CheckpointPortable<std::string> : std::true_type {};

template <typename A, typename B>
struct CheckpointPortable<std::pair<A, B>>
    : std::bool_constant<CheckpointPortable<A>::value &&
                         CheckpointPortable<B>::value> {};

template <typename U>
struct CheckpointPortable<std::vector<U>> : CheckpointPortable<U> {};

/// True when stage results of T may be checkpointed and restored by a
/// later process: portable by the trait above AND serializable at all.
template <typename T>
inline constexpr bool checkpoint_portable_v =
    CheckpointPortable<T>::value && has_serde_v<T>;

/// Durable stage-result store under Options::checkpoint_dir. One
/// manager per Context; keys are lineage-plan fingerprints qualified by
/// an occurrence counter (the same logical stage can run more than once
/// per job), data files commit via write-temp + fsync + rename, and a
/// wholesale-rewritten MANIFEST (same commit protocol) indexes them.
/// The manifest carries a job epoch: a fresh (non-resume) start over an
/// existing directory bumps it, invalidating every older entry, while
/// `resume` keeps it so entries of the crashed run verify.
///
/// Key allocation (NextKey) is driver-thread only, like every plan-side
/// entry point; enabled() may flip from a pool thread when a spill
/// write hits disk pressure, hence the atomic.
class CheckpointManager {
 public:
  CheckpointManager(std::string dir, bool resume, DiskPressurePolicy policy,
                    CounterRegistry* counters);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// False when construction failed (unusable directory) or a disk
  /// failure dropped checkpointing per policy.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool resume() const { return resume_; }
  DiskPressurePolicy policy() const { return policy_; }
  const std::string& dir() const { return dir_; }
  uint64_t epoch() const { return epoch_; }

  /// Allocates the occurrence-qualified key for the next run of the
  /// stage with this plan fingerprint. Called for EVERY eligible stage
  /// (even while disabled) so a resumed driver replays the identical
  /// key sequence. Driver thread only.
  std::string NextKey(uint64_t fingerprint, uint64_t* occurrence);

  /// Loads the committed blob for `key` when the manifest has a
  /// current-epoch entry whose size matches the file on disk. Content
  /// verification (magic + per-partition CRC) is the typed decoder's
  /// job. Driver thread only.
  bool TryLoadBlob(const std::string& key, std::string* blob);

  /// Persists `blob` under `key` (temp + fsync + rename) and commits
  /// the manifest entry. On a write failure the disk-pressure policy
  /// applies: returns non-OK only under kFail; otherwise disables
  /// checkpointing and returns OK so the job continues. Driver thread
  /// only.
  Status SaveBlob(const std::string& key, const std::string& blob);

  /// Drops checkpointing after an external disk-pressure event (a spill
  /// write failure). Safe from any thread.
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

 private:
  /// Rewrites MANIFEST from entries_ via temp + fsync + rename.
  Status CommitManifest();
  void LoadManifest();

  struct Entry {
    uint64_t bytes = 0;
    uint64_t epoch = 0;
  };

  std::string dir_;
  bool resume_ = false;
  DiskPressurePolicy policy_ = DiskPressurePolicy::kDropCheckpoints;
  CounterRegistry* counters_ = nullptr;
  uint64_t epoch_ = 1;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<uint64_t, uint64_t> occurrence_;
  std::atomic<bool> enabled_{false};
};

namespace checkpoint_internal {

inline constexpr uint32_t kBlobMagic = 0x50434b52u;  // "RKCP"
inline constexpr uint32_t kBlobVersion = 1;

inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline bool ReadU32(const char** p, const char* end, uint32_t* v) {
  if (*p + sizeof(*v) > end) return false;
  std::memcpy(v, *p, sizeof(*v));
  *p += sizeof(*v);
  return true;
}

inline bool ReadU64(const char** p, const char* end, uint64_t* v) {
  if (*p + sizeof(*v) > end) return false;
  std::memcpy(v, *p, sizeof(*v));
  *p += sizeof(*v);
  return true;
}

}  // namespace checkpoint_internal

/// Encodes materialized partitions as one checkpoint blob:
/// [magic][version][nparts] then, per partition,
/// [records u64][payload bytes u64][crc32 u32][payload]. `injector`
/// (optional) may flip one payload byte AFTER the checksum is taken —
/// the `checkpoint_corrupt` chaos site, which restore must catch.
template <typename T>
std::string EncodeCheckpointPartitions(
    const std::vector<std::vector<T>>& partitions, uint64_t fingerprint,
    uint64_t occurrence, FaultInjector* injector) {
  namespace ci = checkpoint_internal;
  std::string out;
  ci::AppendU32(&out, ci::kBlobMagic);
  ci::AppendU32(&out, ci::kBlobVersion);
  ci::AppendU32(&out, static_cast<uint32_t>(partitions.size()));
  std::string payload;
  for (size_t p = 0; p < partitions.size(); ++p) {
    payload.clear();
    for (const T& record : partitions[p]) {
      Serde<T>::Write(record, &payload);
    }
    uint32_t crc = Crc32(payload.data(), payload.size());
    if (injector != nullptr && !payload.empty() &&
        injector->CheckpointCorrupt(fingerprint, occurrence,
                                    static_cast<int>(p))) {
      payload[payload.size() / 2] ^= 0x5A;
    }
    ci::AppendU64(&out, static_cast<uint64_t>(partitions[p].size()));
    ci::AppendU64(&out, static_cast<uint64_t>(payload.size()));
    ci::AppendU32(&out, crc);
    out += payload;
  }
  return out;
}

/// Decodes and VERIFIES a checkpoint blob (magic, version, bounds,
/// per-partition CRC before any Serde read touches the payload).
/// Returns false on any mismatch — the caller re-executes the stage.
template <typename T>
bool DecodeCheckpointPartitions(const std::string& blob,
                                std::vector<std::vector<T>>* partitions) {
  namespace ci = checkpoint_internal;
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t nparts = 0;
  if (!ci::ReadU32(&p, end, &magic) || magic != ci::kBlobMagic) return false;
  if (!ci::ReadU32(&p, end, &version) || version != ci::kBlobVersion) {
    return false;
  }
  if (!ci::ReadU32(&p, end, &nparts)) return false;
  partitions->clear();
  partitions->reserve(nparts);
  for (uint32_t i = 0; i < nparts; ++i) {
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint32_t crc = 0;
    if (!ci::ReadU64(&p, end, &records) || !ci::ReadU64(&p, end, &bytes) ||
        !ci::ReadU32(&p, end, &crc)) {
      return false;
    }
    if (p + bytes > end) return false;
    if (Crc32(p, bytes) != crc) return false;
    // CRC verified: the payload is exactly what Write produced, so the
    // (CHECK-asserting) Serde reads below cannot run off the end.
    std::vector<T> part;
    part.reserve(static_cast<size_t>(records));
    const char* q = p;
    const char* payload_end = p + bytes;
    for (uint64_t r = 0; r < records; ++r) {
      T record;
      Serde<T>::Read(&q, payload_end, &record);
      part.push_back(std::move(record));
    }
    if (q != payload_end) return false;
    partitions->push_back(std::move(part));
    p += bytes;
  }
  return p == end;
}

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_CHECKPOINT_H_

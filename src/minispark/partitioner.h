#ifndef RANKJOIN_MINISPARK_PARTITIONER_H_
#define RANKJOIN_MINISPARK_PARTITIONER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rankjoin::minispark {

/// Finalizing 64-bit mixer (from MurmurHash3). std::hash for integers is
/// the identity on common standard libraries; without mixing, hash
/// partitioning of dense ids would degenerate to modulo striping and hide
/// the skew effects the paper studies.
uint64_t Mix64(uint64_t x);

/// Hashes a key for shuffle partitioning.
template <typename K>
uint64_t ShuffleHash(const K& key) {
  return Mix64(static_cast<uint64_t>(std::hash<K>{}(key)));
}

/// Hash of a pair key (used by the CL-P secondary-key shuffles).
template <typename A, typename B>
uint64_t ShuffleHash(const std::pair<A, B>& key) {
  return Mix64(ShuffleHash(key.first) * 0x9e3779b97f4a7c15ULL +
               ShuffleHash(key.second));
}

/// Maps a key to a partition in [0, num_partitions).
class HashPartitioner {
 public:
  explicit HashPartitioner(int num_partitions);

  int num_partitions() const { return num_partitions_; }

  template <typename K>
  int PartitionOf(const K& key) const {
    return static_cast<int>(ShuffleHash(key) %
                            static_cast<uint64_t>(num_partitions_));
  }

 private:
  int num_partitions_;
};

/// A range-coalesced (and optionally slice-split) view of shuffle target
/// buckets: output (read) partition `p` covers the CONTIGUOUS bucket
/// range [begin(p), end(p)). Contiguity is what preserves the
/// key->partition contract of the keyed wide operations — a key's bucket
/// belongs to exactly one range, so all records of one key still land in
/// one read partition.
///
/// SplitOversized is the mirror image of Coalesce: where coalescing
/// merges adjacent undersized buckets into one read partition, splitting
/// fans a single oversized bucket out into `slices(p)` read partitions,
/// each covering the same bucket but only slice index `slice(p)` of it.
/// How bucket records are divided among slices is the shuffle reader's
/// business (it refines the key hash, so every key stays whole in one
/// slice).
class PartitionRanges {
 public:
  /// One range per bucket (no coalescing).
  static PartitionRanges Identity(int num_buckets);

  /// AQE-style greedy coalescing: walks the buckets in order and merges
  /// adjacent ones while the combined serialized size stays within
  /// `target_bytes`. A single bucket above the target keeps its own
  /// range. `target_bytes == 0` disables coalescing (identity view).
  static PartitionRanges Coalesce(const std::vector<uint64_t>& bucket_bytes,
                                  uint64_t target_bytes);

  /// Runtime skew splitting: every single-bucket range whose serialized
  /// size exceeds `max_bytes` is replaced by ceil(bytes / max_bytes)
  /// slice partitions (capped at `max_slices`), each reading one slice
  /// of that bucket. Multi-bucket (coalesced) ranges are never split —
  /// coalescing already proved them small. `max_bytes == 0` disables
  /// splitting and returns `base` unchanged.
  static PartitionRanges SplitOversized(
      PartitionRanges base, const std::vector<uint64_t>& bucket_bytes,
      uint64_t max_bytes, int max_slices = 64);

  int NumPartitions() const { return static_cast<int>(begin_.size()); }
  int num_buckets() const { return num_buckets_; }

  int begin(int p) const { return begin_[static_cast<size_t>(p)]; }
  int end(int p) const { return end_[static_cast<size_t>(p)]; }

  /// Slice index of partition `p` within its bucket, in [0, slices(p)).
  int slice(int p) const { return slice_[static_cast<size_t>(p)]; }
  /// Total slice count of partition p's bucket (1 = unsplit).
  int slices(int p) const { return slices_[static_cast<size_t>(p)]; }

  /// Number of buckets merged away by coalescing.
  int CoalescedAway() const { return coalesced_away_; }
  /// Number of extra read partitions added by skew splitting.
  int SplitAdded() const { return split_added_; }
  bool HasSplits() const { return split_added_ > 0; }

 private:
  PartitionRanges() = default;

  /// Per-output-partition bucket range [begin_[p], end_[p]) plus the
  /// slice coordinates within that range (slice_/slices_; 0/1 unless the
  /// partition came out of SplitOversized).
  std::vector<int> begin_;
  std::vector<int> end_;
  std::vector<int> slice_;
  std::vector<int> slices_;
  int num_buckets_ = 0;
  int coalesced_away_ = 0;
  int split_added_ = 0;
};

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_PARTITIONER_H_

#ifndef RANKJOIN_MINISPARK_PARTITIONER_H_
#define RANKJOIN_MINISPARK_PARTITIONER_H_

#include <cstdint>
#include <functional>
#include <utility>

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

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_PARTITIONER_H_

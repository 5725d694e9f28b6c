#include "minispark/partitioner.h"

#include "common/logging.h"

namespace rankjoin::minispark {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

HashPartitioner::HashPartitioner(int num_partitions)
    : num_partitions_(num_partitions) {
  RANKJOIN_CHECK(num_partitions >= 1);
}

}  // namespace rankjoin::minispark

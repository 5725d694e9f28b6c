#ifndef RANKJOIN_TESTS_TEST_UTIL_H_
#define RANKJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "data/generator.h"
#include "join/brute_force.h"
#include "join/stats.h"
#include "minispark/context.h"

namespace rankjoin::testutil {

/// A small skewed dataset with planted near-duplicates — large enough to
/// exercise multi-partition paths, small enough for brute force.
inline RankingDataset SmallSkewedDataset(uint64_t seed = 1,
                                         size_t n = 400,
                                         int k = 10) {
  GeneratorOptions options;
  options.k = k;
  options.num_rankings = n;
  options.domain_size = 300;
  options.zipf_skew = 0.9;
  options.near_duplicate_rate = 0.2;
  options.max_perturbations = 2;
  options.seed = seed;
  return GenerateDataset(options);
}

/// The pairs as a set; fails the calling test when a pair is listed
/// twice, since every join emits each result pair once.
inline std::set<ResultPair> PairSet(const std::vector<ResultPair>& pairs) {
  std::set<ResultPair> set(pairs.begin(), pairs.end());
  EXPECT_EQ(set.size(), pairs.size()) << "a pair is listed twice";
  return set;
}

/// Ground truth via brute force.
inline std::set<ResultPair> Truth(const RankingDataset& ds, double theta) {
  return PairSet(BruteForceJoin(ds, theta).pairs);
}

/// Pins an environment variable for one test's scope (nullptr unsets
/// it) and restores the prior state on destruction. CI runs the suite
/// under RANKJOIN_* overrides (chaos, pipelined stages, shuffle budget,
/// trace and lint levels), and an override beats the Options a test
/// sets, so a test that needs a specific setting pins the variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// Unsets every RANKJOIN_* override that changes how a job runs, for
/// one test's scope, so the Options the test sets are the ones in
/// effect under every CI env job.
struct PinnedEnv {
  ScopedEnv fault{"RANKJOIN_FAULT_SPEC", nullptr};
  ScopedEnv budget{"RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr};
  ScopedEnv trace{"RANKJOIN_TRACE_LEVEL", nullptr};
  ScopedEnv lint{"RANKJOIN_LINT_LEVEL", nullptr};
  ScopedEnv pipelined{"RANKJOIN_PIPELINED_STAGES", nullptr};
  ScopedEnv ckpt_dir{"RANKJOIN_CHECKPOINT_DIR", nullptr};
  ScopedEnv resume{"RANKJOIN_RESUME", nullptr};
  ScopedEnv deadline{"RANKJOIN_JOB_DEADLINE_MS", nullptr};
};

inline minispark::Context::Options TestCluster(int workers = 4,
                                               int partitions = 8) {
  minispark::Context::Options options;
  options.num_workers = workers;
  options.default_partitions = partitions;
  return options;
}

}  // namespace rankjoin::testutil

#endif  // RANKJOIN_TESTS_TEST_UTIL_H_

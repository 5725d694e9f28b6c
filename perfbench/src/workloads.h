// Workload definitions, seeded input generation and the correctness
// reference of the rankjoin benchmark.
//
// The library only ever receives the generated RankingDataset (and the
// query rankings); everything that decides what the inputs look like
// lives here.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "join/stats.h"
#include "ranking/ranking.h"
#include "spans.h"

namespace perfbench {

/// The seed that reproduces the repository's documented anchors
/// (`make_dataset --preset dblp --scale 5|10` with default flags).
constexpr uint64_t kDefaultSeed = 20200330;

/// Which operation a workload's main loop times.
enum class MainOp { kJoin, kQuery };

struct WorkloadSpec {
  const char* name;
  /// DBLP-like base dataset before scaling; domain 0 keeps the preset.
  size_t base_rankings;
  uint32_t domain_size;
  int scale;
  /// Load the dataset through WriteFlatRankings + MapFlatRankings.
  bool via_rkjc;
  /// Join configuration (for kQuery workloads: the secondary join over
  /// the query set).
  rankjoin::Algorithm algorithm;
  double theta;
  double theta_c;
  uint64_t delta;
  int workers;
  int partitions;
  uint64_t shuffle_budget_bytes;
  MainOp main_op;
  /// Closed-loop queries issued against a PrefixRangeIndex over the
  /// workload's data: the count per pass of the query probe.
  size_t num_queries;
};

/// Returns the named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Order-independent fingerprint of a result set: element count plus the
/// wrapping sum of a 64-bit mix of every element.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t key);
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.count == b.count && a.sum == b.sum;
  }
};

Digest DigestPairs(const std::vector<rankjoin::ResultPair>& pairs);
Digest DigestIds(const std::vector<rankjoin::RankingId>& ids);

/// The generated inputs of one (workload, seed).
struct Inputs {
  /// The rankings the join runs over and the index is built on. For
  /// via_rkjc workloads this dataset is born from the mmapped file.
  rankjoin::RankingDataset data;
  /// Perturbed copies of random rankings of `data`, with ids past the
  /// end of `data` so none is in the index.
  std::vector<rankjoin::Ranking> queries;
  /// kQuery workloads: the query rankings as a dataset of their own,
  /// joined by the secondary job.
  rankjoin::RankingDataset query_set;

  /// The dataset the workload's join jobs run over.
  const rankjoin::RankingDataset& join_data(const WorkloadSpec& w) const {
    return w.main_op == MainOp::kQuery ? query_set : data;
  }
};

/// Seconds spent in the data module while building the inputs.
struct GenerateTimes {
  double generate_s = 0;  ///< GenerateDataset + ScaleDataset
  double map_s = 0;       ///< MapFlatRankings
};

/// Builds the inputs of `w` from `seed`, recording a span around each
/// call into the data module. `rkjc_path` is the columnar file used by
/// via_rkjc workloads. Exits the process on an I/O failure.
std::unique_ptr<Inputs> MakeInputs(const WorkloadSpec& w, uint64_t seed,
                                   const std::string& rkjc_path,
                                   SpanRecorder* spans, GenerateTimes* times);

/// Fingerprint of the generated inputs (every id and item of the data
/// and the queries), stored with the reference so a reference computed
/// over different data is never trusted.
uint64_t InputsFingerprint(const Inputs& inputs);

/// Expected results of one (workload, seed).
struct Reference {
  uint64_t fingerprint = 0;
  Digest join;
  std::vector<Digest> queries;
};

/// Computes the reference: an exact all-pairs scan (own Footrule kernel,
/// `threads` threads) for the join, except where the data is too large,
/// where it runs CL with a resident shuffle instead; a linear scan per
/// query.
Reference ComputeReference(const WorkloadSpec& w, const Inputs& inputs,
                           int threads, const std::string& spill_dir);

bool WriteReference(const std::string& path, const Reference& ref);
bool ReadReference(const std::string& path, Reference* ref);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "common/random.h"
#include "core/similarity_join.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/scale.h"
#include "minispark/context.h"
#include "ranking/flat_rankings.h"
#include "ranking/footrule.h"

namespace perfbench {
namespace {

using rankjoin::Algorithm;

// Workload table. See README.md for why each one exists.
const WorkloadSpec kWorkloads[] = {
    // DBLPx5, VJ on one worker, resident shuffle: bound by verification.
    {"vj-verify", 4000, 0, 5, false, Algorithm::kVJ, 0.3, 0.03, 0, 1, 64,
     0, MainOp::kJoin, 2000},
    // DBLPx10, CL-P with delta 900: clustering, centroid join,
    // repartitioning and expansion. One worker: on a shared machine the
    // wall time of 59 barrier stages over four workers moved by a fifth
    // between identical sets of runs; parallel engine behaviour is
    // measured on vj-spill.
    {"clp-cluster", 4000, 0, 10, false, Algorithm::kCLP, 0.3, 0.03, 900, 1,
     64, 0, MainOp::kJoin, 2000},
    // fig08's --scale-to recipe at 200k rankings, loaded from an RKJC
    // file, VJ at theta 0.05 under a 1 MiB shuffle budget: engine-bound.
    {"vj-spill", 20000, 10000, 10, true, Algorithm::kVJ, 0.05, 0.03, 0, 4,
     64, 1u << 20, MainOp::kJoin, 2000},
    // Range queries over the DBLPx5 data; the secondary job is a VJ self-
    // join of the query set, small enough that per-job overhead shows.
    // One worker: a ~20 ms job of 12 barrier stages over four workers
    // waits at every barrier for its slowest thread, and on a shared
    // machine its median wall time moved by half from seed to seed.
    {"range-query", 4000, 0, 5, false, Algorithm::kVJ, 0.3, 0.03, 0, 1, 16,
     0, MainOp::kQuery, 4000},
};

// Largest dataset the reference scans all pairs of; beyond it the
// reference runs CL (a different algorithm) with a resident shuffle.
constexpr size_t kMaxAllPairs = 50000;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// The reference's own Footrule kernel, written without the library's
// OrderedRanking. One ranking `a` is spread into a dense item -> rank
// table; every ranking `b` is then scored with k table lookups:
//   d(a, b) = k(k+1) - sum over shared items of (2k - ra - rb - |ra - rb|)
// (missing items sit at rank k, so a disjoint pair scores k(k+1)).
// Ranks are stored as bytes, so k must stay below 255.
class FootruleScanner {
 public:
  FootruleScanner(int k, uint32_t max_item)
      : k_(k),
        rank_of_(static_cast<size_t>(max_item) + 1, static_cast<uint8_t>(k)),
        saved_(static_cast<size_t>(k + 1) * k, 0) {
    for (int ra = 0; ra < k; ++ra) {
      for (int rb = 0; rb < k; ++rb) {
        saved_[static_cast<size_t>(ra * k + rb)] =
            static_cast<uint8_t>(2 * k - ra - rb - std::abs(ra - rb));
      }
    }
  }

  /// Makes `a` (k items in rank order) the ranking scored against.
  void Load(const rankjoin::ItemId* a) {
    Clear();
    for (int r = 0; r < k_; ++r) rank_of_[a[r]] = static_cast<uint8_t>(r);
    loaded_ = a;
  }

  uint32_t Distance(const rankjoin::ItemId* b) const {
    uint32_t saved = 0;
    for (int r = 0; r < k_; ++r) {
      saved += saved_[static_cast<size_t>(rank_of_[b[r]]) * k_ + r];
    }
    return static_cast<uint32_t>(k_ * (k_ + 1)) - saved;
  }

 private:
  void Clear() {
    if (loaded_ == nullptr) return;
    for (int r = 0; r < k_; ++r) {
      rank_of_[loaded_[r]] = static_cast<uint8_t>(k_);
    }
  }

  int k_;
  std::vector<uint8_t> rank_of_;  // k = absent
  // saved_[ra * k + rb]; row ra = k (absent) is all zero.
  std::vector<uint8_t> saved_;
  const rankjoin::ItemId* loaded_ = nullptr;
};

uint32_t MaxItem(const rankjoin::FlatRankings& store,
                 const std::vector<rankjoin::Ranking>& extra) {
  uint32_t max_item = 0;
  const size_t cells = store.size() * static_cast<size_t>(store.k());
  for (size_t i = 0; i < cells; ++i) {
    max_item = std::max(max_item, store.items()[i]);
  }
  for (const rankjoin::Ranking& r : extra) {
    for (rankjoin::ItemId item : r.items()) {
      max_item = std::max(max_item, item);
    }
  }
  return max_item;
}

// Runs body(t) for t in [0, threads) on `threads` threads and joins them.
template <typename Body>
void ParallelFor(int threads, const Body& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& th : pool) th.join();
}

Digest AllPairsJoin(const rankjoin::FlatRankings& store, double theta,
                    int threads) {
  const uint32_t raw = rankjoin::RawThreshold(theta, store.k());
  const uint32_t max_item = MaxItem(store, {});
  const size_t n = store.size();
  const size_t k = static_cast<size_t>(store.k());
  std::vector<Digest> parts(static_cast<size_t>(threads));
  ParallelFor(threads, [&](int t) {
    FootruleScanner scanner(store.k(), max_item);
    Digest d;
    for (size_t a = static_cast<size_t>(t); a < n;
         a += static_cast<size_t>(threads)) {
      scanner.Load(store.items() + a * k);
      for (size_t b = a + 1; b < n; ++b) {
        if (scanner.Distance(store.items() + b * k) <= raw) {
          const rankjoin::ResultPair p =
              rankjoin::MakeResultPair(store.ids()[a], store.ids()[b]);
          d.Add((static_cast<uint64_t>(p.first) << 32) | p.second);
        }
      }
    }
    parts[static_cast<size_t>(t)] = d;
  });
  Digest total;
  for (const Digest& d : parts) {
    total.count += d.count;
    total.sum += d.sum;
  }
  return total;
}

Digest ClResidentJoin(const WorkloadSpec& w,
                      const rankjoin::RankingDataset& data, int threads,
                      const std::string& spill_dir) {
  rankjoin::minispark::Context::Options options;
  options.num_workers = threads;
  options.default_partitions = w.partitions;
  options.spill_dir = spill_dir;
  rankjoin::minispark::Context ctx(options);
  rankjoin::SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = w.theta;
  config.theta_c = w.theta_c;
  auto result = rankjoin::RunSimilarityJoin(&ctx, data, config);
  if (!result.ok()) Die("reference CL join: " + result.status().ToString());
  return DigestPairs(result->pairs);
}

std::vector<Digest> LinearScanQueries(const rankjoin::FlatRankings& store,
                                      const std::vector<rankjoin::Ranking>& qs,
                                      double theta, int threads) {
  const uint32_t raw = rankjoin::RawThreshold(theta, store.k());
  const uint32_t max_item = MaxItem(store, qs);
  const size_t k = static_cast<size_t>(store.k());
  std::vector<Digest> out(qs.size());
  ParallelFor(threads, [&](int t) {
    FootruleScanner scanner(store.k(), max_item);
    for (size_t q = static_cast<size_t>(t); q < qs.size();
         q += static_cast<size_t>(threads)) {
      scanner.Load(qs[q].items().data());
      Digest d;
      for (size_t x = 0; x < store.size(); ++x) {
        if (store.ids()[x] == qs[q].id()) continue;
        if (scanner.Distance(store.items() + x * k) <= raw) {
          d.Add(store.ids()[x]);
        }
      }
      out[q] = d;
    }
  });
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

void Digest::Add(uint64_t key) {
  ++count;
  sum += Mix(key);
}

Digest DigestPairs(const std::vector<rankjoin::ResultPair>& pairs) {
  Digest d;
  for (const rankjoin::ResultPair& p : pairs) {
    d.Add((static_cast<uint64_t>(p.first) << 32) | p.second);
  }
  return d;
}

Digest DigestIds(const std::vector<rankjoin::RankingId>& ids) {
  Digest d;
  for (rankjoin::RankingId id : ids) d.Add(id);
  return d;
}

std::unique_ptr<Inputs> MakeInputs(const WorkloadSpec& w, uint64_t seed,
                                   const std::string& rkjc_path,
                                   SpanRecorder* spans, GenerateTimes* times) {
  auto inputs = std::make_unique<Inputs>();
  rankjoin::GeneratorOptions base = rankjoin::DblpLikeOptions();
  base.num_rankings = w.base_rankings;
  if (w.domain_size > 0) base.domain_size = w.domain_size;
  base.seed = seed;
  // ScaleDataset's own default seed is 7; derive it from the workload
  // seed so that the default seed reproduces make_dataset exactly.
  const uint64_t scale_seed = seed ^ kDefaultSeed ^ 7;

  auto start = std::chrono::steady_clock::now();
  rankjoin::RankingDataset data;
  {
    ScopedSpan span(spans, "data.GenerateDataset", "data");
    data = rankjoin::GenerateDataset(base);
  }
  if (w.scale > 1) {
    ScopedSpan span(spans, "data.ScaleDataset", "data");
    data = rankjoin::ScaleDataset(data, w.scale, base.domain_size,
                                  /*perturbation_ops=*/3, scale_seed);
  }
  times->generate_s = SecondsSince(start);

  rankjoin::Rng rng(Mix(seed ^ 0x51E7ull));
  const size_t n = data.size();
  inputs->queries.reserve(w.num_queries);
  for (size_t q = 0; q < w.num_queries; ++q) {
    const rankjoin::Ranking source = data.store().ToRanking(rng.Uniform(n));
    const int ops = static_cast<int>(rng.UniformInt(1, 3));
    inputs->queries.push_back(rankjoin::PerturbRanking(
        source, static_cast<rankjoin::RankingId>(n + q), base.domain_size,
        ops, rng));
  }

  if (w.via_rkjc) {
    {
      ScopedSpan span(spans, "data.WriteFlatRankings", "data");
      if (rankjoin::Status s = rankjoin::WriteFlatRankings(rkjc_path, data);
          !s.ok()) {
        Die("WriteFlatRankings: " + s.ToString());
      }
    }
    data = rankjoin::RankingDataset();
    start = std::chrono::steady_clock::now();
    {
      ScopedSpan span(spans, "data.MapFlatRankings", "data");
      auto mapped = rankjoin::MapFlatRankings(rkjc_path);
      if (!mapped.ok()) Die("MapFlatRankings: " + mapped.status().ToString());
      inputs->data = std::move(*mapped);
    }
    times->map_s = SecondsSince(start);
  } else {
    inputs->data = std::move(data);
  }
  if (w.main_op == MainOp::kQuery) {
    inputs->query_set.k = inputs->data.k;
    inputs->query_set.rankings = inputs->queries;
  }
  return inputs;
}

uint64_t InputsFingerprint(const Inputs& inputs) {
  uint64_t h = 0;
  const rankjoin::FlatRankings& store = inputs.data.store();
  const size_t k = static_cast<size_t>(store.k());
  for (size_t i = 0; i < store.size(); ++i) {
    h = Mix(h ^ store.ids()[i]);
    for (size_t r = 0; r < k; ++r) h = Mix(h ^ store.items()[i * k + r]);
  }
  for (const rankjoin::Ranking& q : inputs.queries) {
    h = Mix(h ^ q.id());
    for (rankjoin::ItemId item : q.items()) h = Mix(h ^ item);
  }
  return h;
}

Reference ComputeReference(const WorkloadSpec& w, const Inputs& inputs,
                           int threads, const std::string& spill_dir) {
  Reference ref;
  ref.fingerprint = InputsFingerprint(inputs);
  const rankjoin::RankingDataset& join_data = inputs.join_data(w);
  if (join_data.size() <= kMaxAllPairs) {
    ref.join = AllPairsJoin(join_data.store(), w.theta, threads);
  } else {
    ref.join = ClResidentJoin(w, join_data, threads, spill_dir);
  }
  ref.queries =
      LinearScanQueries(inputs.data.store(), inputs.queries, w.theta, threads);
  return ref;
}

bool WriteReference(const std::string& path, const Reference& ref) {
  std::ofstream out(path + ".tmp");
  out << "perfbench-reference 1\n"
      << ref.fingerprint << "\n"
      << ref.join.count << " " << ref.join.sum << "\n"
      << ref.queries.size() << "\n";
  for (const Digest& d : ref.queries) out << d.count << " " << d.sum << "\n";
  out.close();
  if (!out) return false;
  return std::rename((path + ".tmp").c_str(), path.c_str()) == 0;
}

bool ReadReference(const std::string& path, Reference* ref) {
  std::ifstream in(path);
  std::string magic;
  int version = 0;
  size_t num_queries = 0;
  if (!(in >> magic >> version) || magic != "perfbench-reference" ||
      version != 1) {
    return false;
  }
  if (!(in >> ref->fingerprint >> ref->join.count >> ref->join.sum >>
        num_queries)) {
    return false;
  }
  ref->queries.resize(num_queries);
  for (Digest& d : ref->queries) {
    if (!(in >> d.count >> d.sum)) return false;
  }
  return true;
}

}  // namespace perfbench

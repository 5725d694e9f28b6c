// Recommender-system near-duplicate detection (paper Section 1): each
// client has a top-k list of best-selling items; clients with nearly
// identical lists can share recommendation models. This example also
// demonstrates the file I/O path and the Eq. 4 posting-list estimator
// that guides the CL-P partitioning threshold.

#include <cstdio>
#include <string>

#include "core/similarity_join.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/stats.h"
#include "join/estimate.h"
#include "minispark/dataset.h"
#include "ranking/prefix.h"
#include "ranking/footrule.h"
#include "ranking/reorder.h"

int main() {
  using namespace rankjoin;

  // Synthesize client top-10 sales rankings and round-trip them through
  // the text format, as a real deployment would load them.
  GeneratorOptions generator;
  generator.k = 10;
  generator.num_rankings = 3000;
  generator.domain_size = 2000;
  generator.zipf_skew = 1.0;         // a few products dominate sales
  generator.near_duplicate_rate = 0.3;
  generator.seed = 99;
  RankingDataset clients = GenerateDataset(generator);

  const std::string path = "/tmp/rankjoin_clients.txt";
  if (Status s = WriteRankings(path, clients); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = ReadRankings(path, clients.k);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }

  // Pick the CL-P partitioning threshold. Two routes: the Eq. 4 model
  // fed with statistics measured from the data, and the direct
  // measurement of the reordered prefix index (usually much tighter —
  // reordering keeps frequent items out of the prefixes).
  const double theta = 0.3;
  const DatasetStats stats = ComputeDatasetStats(*loaded);
  std::printf("dataset: %s\n", stats.ToString().c_str());

  const int prefix =
      OverlapPrefix(RawThreshold(theta, loaded->k), loaded->k);
  const size_t prefix_tokens = loaded->size() * static_cast<size_t>(prefix);
  const uint64_t model_delta = SuggestDelta(
      prefix_tokens, stats.zipf_skew, stats.distinct_items, 4.0);

  ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(loaded->rankings));
  const uint64_t delta =
      SuggestDeltaMeasured(loaded->store().Views(), prefix, 4.0, &order);
  std::printf(
      "delta from Eq. 4 model: %llu; from measured reordered prefix "
      "index: %llu (used)\n",
      static_cast<unsigned long long>(model_delta),
      static_cast<unsigned long long>(delta));

  minispark::Context ctx({.num_workers = 4, .default_partitions = 16});
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCLP;
  config.theta = theta;
  config.theta_c = 0.03;
  config.delta = delta;
  auto result = RunSimilarityJoin(&ctx, *loaded, config);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("clients with shareable models (theta = %.2f): %zu pairs\n",
              theta, result->pairs.size());
  std::printf("posting lists split by delta: %llu, chunk-pair joins: %llu\n",
              static_cast<unsigned long long>(
                  result->stats.lists_repartitioned),
              static_cast<unsigned long long>(
                  result->stats.chunk_pair_joins));

  if (Status s = WriteResultPairs("/tmp/rankjoin_matches.txt",
                                  result->pairs);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("matches written to /tmp/rankjoin_matches.txt\n");
  return 0;
}

// Eq. 4 validation: the expected posting-list length estimator against
// the measured inverted-index lists, across skew values — the statistic
// the paper proposes for choosing the partitioning threshold delta
// (Section 6).

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/bench_common.h"
#include "data/generator.h"
#include "join/estimate.h"
#include "ranking/footrule.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

int main(int argc, char** argv) {
  rankjoin::bench::ParseCommonFlags(argc, argv);
  using namespace rankjoin;
  using namespace rankjoin::bench;

  Table table({"zipf s", "estimated E[len]", "measured E[len]",
               "max list", "suggested delta (4x)"});
  for (double skew : {0.0, 0.5, 0.8, 1.0, 1.2}) {
    GeneratorOptions options;
    options.k = 10;
    options.num_rankings = 5000;
    options.domain_size = 2000;
    options.zipf_skew = skew;
    options.near_duplicate_rate = 0.0;
    options.seed = 4242;
    RankingDataset ds = GenerateDataset(options);

    // Full-k index without reordering: the regime Eq. 4 models.
    auto lengths = MeasurePostingListLengths(ds.store().Views(), options.k);
    double sum = 0;
    double sum_sq = 0;
    for (size_t len : lengths) {
      sum += static_cast<double>(len);
      sum_sq += static_cast<double>(len) * static_cast<double>(len);
    }
    const double measured = sum_sq / sum;
    const size_t tokens = ds.size() * static_cast<size_t>(options.k);
    const double estimated =
        EstimatePostingListLength(tokens, skew, options.domain_size);
    char s[16], est[32], meas[32];
    std::snprintf(s, sizeof(s), "%.1f", skew);
    std::snprintf(est, sizeof(est), "%.1f", estimated);
    std::snprintf(meas, sizeof(meas), "%.1f", measured);
    table.AddRow({s, est, meas, std::to_string(lengths.front()),
                  std::to_string(SuggestDelta(tokens, skew,
                                              options.domain_size))});
  }
  table.Print(
      "Eq. 4 — expected vs measured posting-list length (full-k index, "
      "5000 rankings, 2000 items)");
  return 0;
}

#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "join/estimate.h"
#include "ranking/footrule.h"
#include "ranking/join_store.h"
#include "ranking/prefix.h"
#include "ranking/reorder.h"

namespace rankjoin::plan {
namespace {

/// Approximate serialized size of one shuffled prefix posting
/// ((item, PrefixPosting) pair).
constexpr double kPostingBytes = 24.0;

/// Stage counts of the pipelines (ordering + shuffles + local joins),
/// feeding the fixed per-stage overhead term. CL runs four
/// phases, two of them distributed self-joins; CL-P adds the
/// repartitioning machinery's extra shuffles. The values were fitted
/// when the self-joins, the centroid join, the R-S join and the CL
/// expansion still ended in a distinct stage, the expansion still
/// joined R_m with R_c in three shuffled joins, and CL-P paired its
/// chunks through a shuffled join. None of these runs any more: the
/// expansion is two narrow passes over a broadcast index, and the chunk
/// pairs are keyed units of one spread. The values still count those
/// stages and stay as they are until the constants are refit
/// (ROADMAP.md item 6).
constexpr double kVjStages = 6.0;
constexpr double kClStages = 14.0;
constexpr double kClpExtraStages = 6.0;

struct ListStats {
  uint64_t sum = 0;
  uint64_t sum_sq = 0;
  uint64_t max = 0;
};

ListStats Summarize(const std::vector<size_t>& lengths) {
  ListStats s;
  for (size_t len : lengths) {
    const uint64_t l = static_cast<uint64_t>(len);
    s.sum += l;
    s.sum_sq += l * l;
    s.max = std::max(s.max, l);
  }
  return s;
}

int Workers(const PlannerOptions& options) {
  return options.num_workers > 0 ? options.num_workers : 4;
}

std::string FormatUnits(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

}  // namespace

size_t ErrorBoundedSampleSize(size_t n, const PlannerOptions& options) {
  if (n == 0) return 0;
  const double eps = std::max(options.epsilon, 1e-3);
  const double delta = std::clamp(1.0 - options.confidence, 1e-9, 1.0);
  const double hoeffding = std::log(2.0 / delta) / (2.0 * eps * eps);
  size_t m = static_cast<size_t>(std::ceil(hoeffding));
  m = std::max(m, options.min_sample);
  m = std::min(m, options.max_sample);
  return std::min(m, n);
}

DatasetProfile ProfileDataset(const FlatRankings& store, double theta,
                              double theta_c,
                              const PlannerOptions& options) {
  DatasetProfile p;
  p.n = store.size();
  p.k = store.k();
  if (p.n == 0 || p.k <= 0) return p;
  p.sample_size = ErrorBoundedSampleSize(p.n, options);
  p.scale = static_cast<double>(p.n) / static_cast<double>(p.sample_size);

  // Deterministic seeded draw without replacement: partial Fisher-Yates
  // over the index range.
  std::vector<size_t> indices(p.n);
  std::iota(indices.begin(), indices.end(), size_t{0});
  Rng rng(options.seed);
  for (size_t i = 0; i < p.sample_size; ++i) {
    const size_t j = i + static_cast<size_t>(rng.Uniform(p.n - i));
    std::swap(indices[i], indices[j]);
  }
  std::vector<RankingView> sample;
  sample.reserve(p.sample_size);
  for (size_t i = 0; i < p.sample_size; ++i) {
    sample.push_back(store.view(indices[i]));
  }

  // Frequency order over the sample — the planner's stand-in for the
  // global broadcast order the pipelines build.
  FlatRankings::Builder builder(p.k);
  builder.Reserve(sample.size());
  for (const RankingView& v : sample) builder.Append(v.id, v.items);
  const FlatRankings sample_flat = std::move(builder).Build();
  const ItemOrder order =
      ItemOrder::FromFrequencies(CountItemFrequencies(sample_flat));

  const uint32_t raw_theta = RawThreshold(theta, p.k);
  const uint32_t raw_tc = RawThreshold(theta_c, p.k);
  const uint32_t enlarged = raw_theta + 2 * raw_tc;
  p.prefix_theta = OverlapPrefix(raw_theta, p.k);
  p.prefix_theta_c = OverlapPrefix(raw_tc, p.k);
  p.prefix_enlarged =
      enlarged < MaxFootrule(p.k) ? OverlapPrefix(enlarged, p.k) : p.k;

  const std::span<const RankingView> views(sample);
  const ListStats at_theta =
      Summarize(MeasurePostingListLengths(views, p.prefix_theta, &order));
  const ListStats at_tc =
      Summarize(MeasurePostingListLengths(views, p.prefix_theta_c, &order));
  const ListStats at_enl =
      Summarize(MeasurePostingListLengths(views, p.prefix_enlarged, &order));
  p.sum_sq_theta = at_theta.sum_sq;
  p.max_list_theta = at_theta.max;
  p.sum_sq_theta_c = at_tc.sum_sq;
  p.max_list_theta_c = at_tc.max;
  p.sum_sq_enlarged = at_enl.sum_sq;
  p.max_list_enlarged = at_enl.max;
  p.expected_list_theta =
      at_theta.sum > 0 ? static_cast<double>(at_theta.sum_sq) /
                             static_cast<double>(at_theta.sum)
                       : 0.0;
  p.skew_ratio = p.expected_list_theta > 0.0
                     ? static_cast<double>(p.max_list_theta) /
                           p.expected_list_theta
                     : 1.0;

  // Delta suggestion from the enlarged-prefix lists (the lists the CL-P
  // joining phase would split), scaled to the full dataset.
  const uint64_t delta_sample = SuggestDeltaMeasured(
      views, p.prefix_enlarged, options.delta_headroom, &order);
  p.suggested_delta = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(static_cast<double>(delta_sample) * p.scale)));

  // Mini brute-force join over the sample: exact pair densities at theta
  // and theta_c, counted with the join store's kernel on a store of the
  // sample in its frequency order. O(sample^2) distances.
  const JoinStore sample_store = JoinStore::Build(sample_flat, order);
  const PairKernel& kernel = sample_store.kernel();
  const size_t m = sample_store.size();
  uint64_t pairs_theta = 0;
  uint64_t pairs_tc = 0;
  kernel.WithChunks([&](auto width) {
    constexpr int kChunks = decltype(width)::value;
    for (RowIndex i = 0; i < m; ++i) {
      for (RowIndex j = i + 1; j < m; ++j) {
        const uint32_t d = kernel.DistanceAt<kChunks>(sample_store.items(i),
                                                      sample_store.items(j));
        if (d > raw_theta) continue;
        ++pairs_theta;
        if (d <= raw_tc) ++pairs_tc;
      }
    }
  });
  const double total_pairs =
      static_cast<double>(m) * static_cast<double>(m - 1) / 2.0;
  if (total_pairs > 0) {
    p.pair_density_theta = static_cast<double>(pairs_theta) / total_pairs;
    p.pair_density_theta_c = static_cast<double>(pairs_tc) / total_pairs;
  }
  // Cluster structure is extrapolated from the pair density, NOT from
  // clustering the sample: a cluster's members rarely co-occur in a
  // small sample, so sample-local clustering severely underestimates
  // compression. The density is an unbiased pair statistic; a record's
  // expected theta_c-neighbor count over the FULL dataset is
  // nu = density * (n - 1), and (for roughly uniform cluster sizes,
  // cluster size m => nu = m - 1) the centroid join keeps ~1 of every
  // 1 + nu records.
  const double nu =
      p.pair_density_theta_c * static_cast<double>(p.n - 1);
  p.avg_cluster_size = 1.0 + nu;
  p.centroid_fraction = 1.0 / (1.0 + nu);
  return p;
}

CostEstimate EstimateVjCost(const DatasetProfile& p,
                            const PlannerOptions& options) {
  CostEstimate c;
  const double w = Workers(options);
  const double scale_sq = p.scale * p.scale;
  // Candidate verifications: a posting list of length L contributes
  // ~L^2/2 pairs; lengths grow linearly with n.
  c.est_candidates = static_cast<double>(p.sum_sq_theta) * scale_sq / 2.0;
  // One prefix shuffle: every ranking emits prefix_theta postings.
  c.est_shuffle_bytes =
      static_cast<double>(p.n) * p.prefix_theta * kPostingBytes;
  const double straggler =
      std::pow(static_cast<double>(p.max_list_theta) * p.scale, 2.0) / 2.0;
  c.makespan = kVjStages * options.stage_overhead +
               c.est_shuffle_bytes * options.byte_weight / w +
               std::max(c.est_candidates / w, straggler);
  c.detail = "vj: cand=" + FormatUnits(c.est_candidates) +
             " straggler=" + FormatUnits(straggler) +
             " shuffleB=" + FormatUnits(c.est_shuffle_bytes);
  return c;
}

namespace {

/// Shared CL phase terms; CL and CL-P differ only in the joining-phase
/// straggler cap and the repartitioning overhead.
struct ClTerms {
  double cluster_work = 0.0;
  double cluster_straggler = 0.0;
  double join_work = 0.0;
  double join_straggler = 0.0;
  double expansion = 0.0;
  double shuffle_bytes = 0.0;
};

ClTerms ComputeClTerms(const DatasetProfile& p) {
  ClTerms t;
  const double scale_sq = p.scale * p.scale;
  const double cf = p.centroid_fraction;
  // Clustering phase: a theta_c self-join over the whole dataset.
  t.cluster_work = static_cast<double>(p.sum_sq_theta_c) * scale_sq / 2.0;
  t.cluster_straggler =
      std::pow(static_cast<double>(p.max_list_theta_c) * p.scale, 2.0) / 2.0;
  // Joining phase: centroids + singletons only (fraction cf of the
  // dataset), at the enlarged threshold's prefix. Candidate counts are
  // quadratic in the indexed set, so cf enters squared.
  t.join_work =
      static_cast<double>(p.sum_sq_enlarged) * scale_sq * cf * cf / 2.0;
  t.join_straggler =
      std::pow(static_cast<double>(p.max_list_enlarged) * p.scale * cf, 2.0) /
      2.0;
  // Expansion: the cluster-pair cross products enumerate every result
  // pair exactly once, so the phase's work is the estimated result
  // count itself (the density already includes intra-cluster pairs).
  t.expansion = p.pair_density_theta * static_cast<double>(p.n) *
                static_cast<double>(p.n - 1) / 2.0;
  // Two prefix shuffles (clustering over n at the theta_c prefix, the
  // centroid join over cf*n at the enlarged prefix) plus the cluster-pair
  // exchange.
  t.shuffle_bytes =
      static_cast<double>(p.n) * p.prefix_theta_c * kPostingBytes +
      static_cast<double>(p.n) * cf * p.prefix_enlarged * kPostingBytes +
      static_cast<double>(p.n) * kPostingBytes;
  return t;
}

}  // namespace

CostEstimate EstimateClCost(const DatasetProfile& p,
                            const PlannerOptions& options) {
  CostEstimate c;
  const double w = Workers(options);
  const ClTerms t = ComputeClTerms(p);
  c.est_candidates = t.cluster_work + t.join_work + t.expansion;
  c.est_shuffle_bytes = t.shuffle_bytes;
  c.makespan = kClStages * options.stage_overhead +
               t.shuffle_bytes * options.byte_weight / w +
               std::max(t.cluster_work / w, t.cluster_straggler) +
               std::max(t.join_work / w, t.join_straggler) + t.expansion / w;
  c.detail = "cl: cluster=" + FormatUnits(t.cluster_work) +
             " join=" + FormatUnits(t.join_work) +
             " joinStraggler=" + FormatUnits(t.join_straggler) +
             " expansion=" + FormatUnits(t.expansion) +
             " cf=" + FormatUnits(p.centroid_fraction);
  return c;
}

CostEstimate EstimateClpCost(const DatasetProfile& p, uint64_t delta,
                             const PlannerOptions& options) {
  CostEstimate c;
  const double w = Workers(options);
  const ClTerms t = ComputeClTerms(p);
  // Algorithm 3 splits every list longer than delta into chunks of at
  // most delta, capping the joining-phase straggler at ~delta^2/2 (one
  // chunk self-join or chunk-pair R-S join per task) ...
  const double capped_straggler = std::min(
      t.join_straggler,
      static_cast<double>(delta) * static_cast<double>(delta) / 2.0);
  // ... in exchange for re-shuffling the oversized lists' postings as
  // keyed work units. The factor 3 was fitted when they crossed a
  // composite-key spread and both sides of a chunk-pair join; it stays
  // until the refit (ROADMAP.md item 6).
  const double max_full =
      static_cast<double>(p.max_list_enlarged) * p.scale * p.centroid_fraction;
  const double oversized_bytes =
      max_full > static_cast<double>(delta) ? max_full * kPostingBytes * 3.0
                                            : 0.0;
  c.est_candidates = t.cluster_work + t.join_work + t.expansion;
  c.est_shuffle_bytes = t.shuffle_bytes + oversized_bytes;
  c.makespan = (kClStages + kClpExtraStages) * options.stage_overhead +
               c.est_shuffle_bytes * options.byte_weight / w +
               std::max(t.cluster_work / w, t.cluster_straggler) +
               std::max(t.join_work / w, capped_straggler) + t.expansion / w;
  c.detail = "cl-p: join=" + FormatUnits(t.join_work) +
             " cappedStraggler=" + FormatUnits(capped_straggler) +
             " delta=" + FormatUnits(static_cast<double>(delta)) +
             " extraShuffleB=" + FormatUnits(oversized_bytes);
  return c;
}

}  // namespace rankjoin::plan

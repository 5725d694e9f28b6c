#include "join/estimate.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "ranking/reorder.h"

namespace rankjoin {

double EstimatePostingListLength(size_t n, double s, size_t v_prime) {
  RANKJOIN_CHECK(v_prime >= 1);
  // Generalized harmonic number H_{v',s} normalizes the frequencies.
  double harmonic = 0.0;
  for (size_t i = 1; i <= v_prime; ++i) {
    harmonic += std::pow(static_cast<double>(i), -s);
  }
  double sum = 0.0;
  for (size_t i = 1; i <= v_prime; ++i) {
    const double f = std::pow(static_cast<double>(i), -s) / harmonic;
    sum += static_cast<double>(n) * f * f;
  }
  return sum;
}

std::vector<size_t> MeasurePostingListLengths(
    std::span<const RankingView> views, int prefix_size,
    const ItemOrder* order) {
  std::unordered_map<ItemId, size_t> lengths;
  std::vector<ItemId> prefix;  // reused per view when reordering
  for (const RankingView& v : views) {
    const int p = std::min(prefix_size, static_cast<int>(v.k));
    if (order == nullptr) {
      for (int i = 0; i < p; ++i) ++lengths[v.ItemAt(i)];
      continue;
    }
    // Canonical prefix: the p items with the smallest global positions
    // (rarest first) — a partial selection, not a full sort, since k is
    // small (10..25) and p often smaller.
    prefix.assign(v.items, v.items + v.k);
    std::partial_sort(prefix.begin(), prefix.begin() + p, prefix.end(),
                      [order](ItemId a, ItemId b) {
                        return order->PositionOf(a) < order->PositionOf(b);
                      });
    for (int i = 0; i < p; ++i) ++lengths[prefix[static_cast<size_t>(i)]];
  }
  std::vector<size_t> out;
  out.reserve(lengths.size());
  for (const auto& [item, len] : lengths) out.push_back(len);
  std::sort(out.begin(), out.end(), std::greater<size_t>());
  return out;
}

uint64_t SuggestDelta(size_t n, double s, size_t v_prime, double headroom) {
  const double expected = EstimatePostingListLength(n, s, v_prime);
  const double delta = std::max(1.0, expected * headroom);
  return static_cast<uint64_t>(std::llround(delta));
}

uint64_t SuggestDeltaMeasured(std::span<const RankingView> views,
                              int prefix_size, double headroom,
                              const ItemOrder* order) {
  // Length-weighted expected list length (what a random prefix token
  // hits, the same statistic Eq. 4 models) times the headroom.
  double sum = 0;
  double sum_sq = 0;
  for (size_t len : MeasurePostingListLengths(views, prefix_size, order)) {
    sum += static_cast<double>(len);
    sum_sq += static_cast<double>(len) * static_cast<double>(len);
  }
  const double expected = sum > 0 ? sum_sq / sum : 1.0;
  return static_cast<uint64_t>(
      std::llround(std::max(1.0, expected * headroom)));
}

}  // namespace rankjoin

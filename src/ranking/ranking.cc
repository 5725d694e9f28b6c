#include "ranking/ranking.h"

#include <sstream>
#include <string>

#include "ranking/flat_rankings.h"

namespace rankjoin {

int Ranking::RankOf(ItemId item) const {
  for (size_t r = 0; r < items_.size(); ++r) {
    if (items_[r] == item) return static_cast<int>(r);
  }
  return -1;
}

bool Ranking::IsValid() const {
  return internal::ItemsDistinct(items_.data(), items_.size());
}

std::string Ranking::ToString() const {
  std::ostringstream os;
  os << id_ << ": [";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) os << ", ";
    os << items_[i];
  }
  os << ']';
  return os.str();
}

size_t RankingDataset::size() const {
  if (rankings.empty() && flat_) return flat_->size();
  return rankings.size();
}

Status RankingDataset::Validate() const {
  // The fixed-k invariant can only be broken through the Ranking vector —
  // the flat store is fixed-k by construction.
  for (const Ranking& r : rankings) {
    if (r.k() != k) {
      return Status::InvalidArgument("ranking " + std::to_string(r.id()) +
                                     " has length " + std::to_string(r.k()) +
                                     ", expected " + std::to_string(k));
    }
  }
  if (flat_ && flat_->size() == size() && flat_->k() == k) {
    return flat_->Validate();  // memoized: runs once per load
  }
  for (const Ranking& r : rankings) {
    if (!r.IsValid()) {
      return Status::InvalidArgument("ranking " + std::to_string(r.id()) +
                                     " contains duplicate items");
    }
  }
  return internal::CheckIdsUnique(
      rankings.size(), [this](size_t i) { return rankings[i].id(); });
}

const FlatRankings& RankingDataset::store() const {
  if (!flat_ || (flat_->size() != size() || flat_->k() != k)) {
    flat_ = std::make_shared<const FlatRankings>(
        FlatRankings::FromRankings(k, rankings));
  }
  return *flat_;
}

void RankingDataset::AttachStore(std::shared_ptr<const FlatRankings> store) {
  flat_ = std::move(store);
}

}  // namespace rankjoin

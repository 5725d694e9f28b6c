#include "ranking/flat_rankings.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rankjoin {

FlatRankings FlatRankings::FromRankings(int k,
                                        const std::vector<Ranking>& rankings) {
  Builder builder(k);
  builder.Reserve(rankings.size());
  for (const Ranking& r : rankings) {
    builder.Append(r.id(), r.items().data());
  }
  return std::move(builder).Build();
}

FlatRankings FlatRankings::Wrap(int k, size_t count, const RankingId* ids,
                                const ItemId* items,
                                std::shared_ptr<const void> owner) {
  FlatRankings flat;
  flat.k_ = k;
  flat.count_ = count;
  flat.ids_ = ids;
  flat.items_ = items;
  flat.owner_ = std::move(owner);
  return flat;
}

std::vector<RankingView> FlatRankings::Views() const {
  std::vector<RankingView> views;
  views.reserve(count_);
  for (size_t i = 0; i < count_; ++i) views.push_back(view(i));
  return views;
}

Ranking FlatRankings::ToRanking(size_t i) const {
  const ItemId* begin = items_ + i * static_cast<size_t>(k_);
  return Ranking(ids_[i], std::vector<ItemId>(begin, begin + k_));
}

Status FlatRankings::Validate() const {
  if (validated_ != 0) return validate_status_;
  const size_t k = static_cast<size_t>(k_);
  for (size_t i = 0; i < count_; ++i) {
    if (!internal::ItemsDistinct(items_ + i * k, k)) {
      validated_ = 2;
      validate_status_ = Status::InvalidArgument(
          "ranking " + std::to_string(ids_[i]) + " contains duplicate items");
      return validate_status_;
    }
  }
  validate_status_ =
      internal::CheckIdsUnique(count_, [this](size_t i) { return ids_[i]; });
  validated_ = validate_status_.ok() ? 1 : 2;
  return validate_status_;
}

void FlatRankings::Builder::Reserve(size_t count) {
  ids_.reserve(count);
  items_.reserve(count * static_cast<size_t>(k_));
}

void FlatRankings::Builder::Append(RankingId id, const ItemId* items) {
  ids_.push_back(id);
  items_.insert(items_.end(), items, items + k_);
}

FlatRankings FlatRankings::Builder::Build() && {
  FlatRankings flat;
  flat.k_ = k_;
  flat.count_ = ids_.size();
  flat.owned_ids_ = std::move(ids_);
  flat.owned_items_ = std::move(items_);
  flat.ids_ = flat.owned_ids_.data();
  flat.items_ = flat.owned_items_.data();
  return flat;
}

namespace internal {
namespace {

// Finalizer of SplitMix64 — enough mixing for open addressing.
inline uint64_t MixItem(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void ScratchItemSet::Begin(size_t expected) {
  size_t capacity = 16;
  while (capacity < expected * 2) capacity <<= 1;
  if (stamps_.size() < capacity) {
    keys_.assign(capacity, 0);
    stamps_.assign(capacity, 0);
    mask_ = capacity - 1;
    generation_ = 0;
  }
  if (++generation_ == 0) {
    // Generation counter wrapped: stale stamps could collide, so reset.
    std::fill(stamps_.begin(), stamps_.end(), 0u);
    generation_ = 1;
  }
}

bool ScratchItemSet::Insert(ItemId item) {
  size_t slot = static_cast<size_t>(MixItem(item)) & mask_;
  while (stamps_[slot] == generation_) {
    if (keys_[slot] == item) return false;
    slot = (slot + 1) & mask_;
  }
  stamps_[slot] = generation_;
  keys_[slot] = item;
  return true;
}

bool ItemsDistinct(const ItemId* items, size_t k) {
  thread_local ScratchItemSet scratch;
  scratch.Begin(k);
  for (size_t i = 0; i < k; ++i) {
    if (!scratch.Insert(items[i])) return false;
  }
  return true;
}

}  // namespace internal

}  // namespace rankjoin

#include "jaccard/jaccard_join.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "jaccard/jaccard.h"
#include "join/local_join.h"
#include "join/vj.h"
#include "minispark/dataset.h"
#include "ranking/join_store.h"
#include "ranking/reorder.h"

namespace rankjoin {
namespace {

/// Margin for the metric filters: bounds are padded so that double
/// rounding can only make the filters weaker (more verification),
/// never unsound.
constexpr double kMargin = 1e-9;

/// In the Jaccard pipelines, ScoredPair's integer score carries the
/// OVERLAP of the pair (distances are rationals; the overlap plus k
/// reconstructs them exactly).
double DistanceOf(const ScoredPair& sp, int k) {
  return JaccardDistanceFromOverlap(static_cast<int>(sp.second), k);
}

Status ValidateOptions(const JaccardJoinOptions& options, int k,
                       bool clustering) {
  if (k < 1) return Status::InvalidArgument("dataset k must be >= 1");
  if (!(options.theta >= 0.0 && options.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1)");
  }
  if (std::isnan(options.theta_c)) {
    return Status::InvalidArgument("theta_c must be a number");
  }
  if (clustering) {
    if (!(options.theta_c >= 0.0 && options.theta_c <= options.theta)) {
      return Status::InvalidArgument("theta_c must be in [0, theta]");
    }
    if (options.theta + 2 * options.theta_c >= 1.0) {
      return Status::InvalidArgument(
          "theta + 2*theta_c must stay below 1 (the disjoint-set "
          "distance)");
    }
  }
  return Status::OK();
}

/// The (prefix item, posting) pairs of one row: its first `prefix`
/// canonical items. Jaccard weighs every item alike, so the prefix has
/// the fixed length JaccardPrefix instead of the Footrule rank-weighted
/// one (ForEachPrefixRank).
std::vector<std::pair<ItemId, PrefixPosting>> JaccardPostings(
    const JoinStore& store, RowIndex row, int prefix, bool singleton) {
  std::vector<std::pair<ItemId, PrefixPosting>> out;
  const ItemId* items = store.items(row);
  const uint16_t* canonical = store.canonical(row);
  for (int t = 0; t < std::min(prefix, store.k()); ++t) {
    out.push_back({items[canonical[t]],
                   PrefixPosting{row, canonical[t], singleton}});
  }
  return out;
}

/// Nested-loop kernel over one posting group; emits (pair, overlap).
/// `threshold(a, b)` is the pair's Jaccard distance threshold.
template <typename Threshold>
void JaccardNestedLoop(const JoinStore& store,
                       const std::vector<PrefixPosting>& group,
                       const Threshold& threshold,
                       std::vector<ScoredPair>* out, JoinStats* stats) {
  const size_t n = group.size();
  const int k = store.k();
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (group[i].row == group[j].row) continue;
      ++stats->candidates;
      ++stats->verified;
      const uint32_t overlap = store.Overlap(group[i].row, group[j].row);
      if (JaccardQualifies(static_cast<int>(overlap), k,
                           threshold(group[i], group[j]))) {
        out->push_back({MakeResultPair(store.id(group[i].row),
                                       store.id(group[j].row)),
                        overlap});
      }
    }
  }
}

/// Per-type thresholds of the centroid join (Lemma 5.3 analog).
struct JaccardThresholds {
  double mm = 0;
  double ms = 0;
  double ss = 0;

  double operator()(const PrefixPosting& a, const PrefixPosting& b) const {
    if (a.singleton && b.singleton) return ss;
    if (a.singleton || b.singleton) return ms;
    return mm;
  }
};

/// Distributed Jaccard prefix self-join over every row of `store` with a
/// uniform threshold; returns deduplicated (pair, overlap) records.
std::vector<ScoredPair> JaccardSelfJoin(minispark::Context* ctx,
                                        const JoinStore& store, double theta,
                                        int num_partitions, JoinStats* stats) {
  const int prefix = JaccardPrefix(theta, store.k());
  auto rankings = minispark::Parallelize(ctx, store.Rows(), num_partitions);
  const JoinStore* store_ptr = &store;
  auto postings = rankings.FlatMap(
      [store_ptr, prefix](RowIndex row) {
        return JaccardPostings(*store_ptr, row, prefix, false);
      },
      "jaccard/prefix");
  auto groups =
      minispark::GroupByKey(postings, num_partitions, "jaccard/group");

  std::vector<JoinStats> slots(static_cast<size_t>(groups.num_partitions()));
  auto pairs = groups.MapPartitionsWithIndex(
      [store_ptr, theta, &slots](
          int index,
          const std::vector<std::pair<ItemId, std::vector<PrefixPosting>>>&
              part) {
        std::vector<ScoredPair> out;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        const auto uniform = [theta](const PrefixPosting&,
                                     const PrefixPosting&) { return theta; };
        for (const auto& group : part) {
          JaccardNestedLoop(*store_ptr, group.second, uniform, &out, &local);
        }
        return out;
      },
      "jaccard/localJoin");
  // Force the fused group+localJoin chain before reading the stat
  // slots. Force(), not Cache(): the chain has a single downstream
  // consumer, so a cache pin would be wasted materialization (MS007).
  pairs.Force();
  for (const JoinStats& s : slots) stats->MergeCounters(s);
  return minispark::Distinct(pairs, num_partitions, "jaccard/distinct")
      .Collect();
}

/// Cluster formation identical to the Footrule pipeline (Section 5.1):
/// smaller id of each theta_c pair is the centroid.
struct JaccardClustering {
  /// (centroid, member, overlap) tuples.
  std::vector<std::tuple<RankingId, RankingId, int>> pairs;
  std::vector<RankingId> centroids;
  std::vector<RankingId> singletons;
};

JaccardClustering FormClusters(const std::vector<ScoredPair>& scored,
                               const JoinStore& store, JoinStats* stats) {
  JaccardClustering clustering;
  std::unordered_set<RankingId> centroid_ids;
  std::unordered_set<RankingId> in_any_pair;
  for (const ScoredPair& sp : scored) {
    clustering.pairs.push_back({sp.first.first, sp.first.second,
                                static_cast<int>(sp.second)});
    centroid_ids.insert(sp.first.first);
    in_any_pair.insert(sp.first.first);
    in_any_pair.insert(sp.first.second);
  }
  clustering.centroids.assign(centroid_ids.begin(), centroid_ids.end());
  std::sort(clustering.centroids.begin(), clustering.centroids.end());
  for (RowIndex row = 0; row < store.size(); ++row) {
    if (in_any_pair.find(store.id(row)) == in_any_pair.end()) {
      clustering.singletons.push_back(store.id(row));
    }
  }
  stats->clusters = clustering.centroids.size();
  stats->singletons = clustering.singletons.size();
  stats->cluster_members = clustering.pairs.size();
  return clustering;
}

/// Member record in the expansion joins: (member id, distance to its
/// centroid).
using MemberRec = std::pair<RankingId, double>;

/// Joining-phase output record.
struct CentroidPairJ {
  RankingId ci = 0;
  RankingId cj = 0;
  double distance = 0;
  bool ci_singleton = false;
  bool cj_singleton = false;
};

/// Applies the metric filters to one candidate and emits/verifies.
void EmitWithBounds(const JoinStore& store, double theta, bool upper_shortcut,
                    RankingId a, RankingId b, double lower, double upper,
                    std::vector<ResultPair>* out, JoinStats* stats) {
  if (a == b) return;
  if (lower > theta + kMargin) {
    ++stats->triangle_filtered;
    return;
  }
  if (upper_shortcut && upper <= theta - kMargin) {
    ++stats->emitted_unverified;
    out->push_back(MakeResultPair(a, b));
    return;
  }
  ++stats->verified;
  const uint32_t overlap = store.Overlap(store.RowOf(a), store.RowOf(b));
  if (JaccardQualifies(static_cast<int>(overlap), store.k(), theta)) {
    out->push_back(MakeResultPair(a, b));
  }
}

}  // namespace

JoinResult JaccardBruteForceJoin(const RankingDataset& dataset,
                                 double theta) {
  Stopwatch watch;
  JoinResult result;
  std::vector<OrderedRanking> ordered =
      MakeOrderedDataset(dataset.store(), ItemOrder());
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    for (size_t j = i + 1; j < ordered.size(); ++j) {
      ++result.stats.candidates;
      ++result.stats.verified;
      const int overlap = SetOverlap(ordered[i], ordered[j]);
      if (JaccardQualifies(overlap, dataset.k, theta)) {
        result.pairs.push_back(
            MakeResultPair(ordered[i].id, ordered[j].id));
      }
    }
  }
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = watch.ElapsedSeconds();
  return result;
}

static Result<JoinResult> RunJaccardVjJoinImpl(
    minispark::Context* ctx, const RankingDataset& dataset,
    const JaccardJoinOptions& options);

Result<JoinResult> RunJaccardVjJoin(minispark::Context* ctx,
                                    const RankingDataset& dataset,
                                    const JaccardJoinOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware(
      [&] { return RunJaccardVjJoinImpl(ctx, dataset, options); });
}

static Result<JoinResult> RunJaccardVjJoinImpl(
    minispark::Context* ctx, const RankingDataset& dataset,
    const JaccardJoinOptions& options) {
  RANKJOIN_RETURN_NOT_OK(
      ValidateOptions(options, dataset.k, /*clustering=*/false));
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  Stopwatch total;
  JoinResult result;

  Stopwatch phase;
  const JoinStore store = internal::OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  phase.Reset();
  std::vector<ScoredPair> scored =
      JaccardSelfJoin(ctx, store, options.theta, num_partitions,
                      &result.stats);
  result.stats.joining_seconds = phase.ElapsedSeconds();

  result.pairs.reserve(scored.size());
  for (const ScoredPair& sp : scored) result.pairs.push_back(sp.first);
  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

static Result<JoinResult> RunJaccardClusterJoinImpl(
    minispark::Context* ctx, const RankingDataset& dataset,
    const JaccardJoinOptions& options);

Result<JoinResult> RunJaccardClusterJoin(minispark::Context* ctx,
                                         const RankingDataset& dataset,
                                         const JaccardJoinOptions& options) {
  // A Cancel()/deadline stop anywhere inside unwinds here as a Status.
  return minispark::StopAware(
      [&] { return RunJaccardClusterJoinImpl(ctx, dataset, options); });
}

static Result<JoinResult> RunJaccardClusterJoinImpl(
    minispark::Context* ctx, const RankingDataset& dataset,
    const JaccardJoinOptions& options) {
  RANKJOIN_RETURN_NOT_OK(
      ValidateOptions(options, dataset.k, /*clustering=*/true));
  RANKJOIN_RETURN_NOT_OK(dataset.Validate());
  const int num_partitions = options.num_partitions > 0
                                 ? options.num_partitions
                                 : ctx->default_partitions();
  const int k = dataset.k;
  const double theta = options.theta;
  Stopwatch total;
  JoinResult result;

  // Phase 1: ordering.
  Stopwatch phase;
  const JoinStore store = internal::OrderDataset(
      ctx, dataset, options.reorder_by_frequency, num_partitions);
  result.stats.ordering_seconds = phase.ElapsedSeconds();

  // Phase 2: clustering with theta_c.
  phase.Reset();
  std::vector<ScoredPair> cluster_pairs = JaccardSelfJoin(
      ctx, store, options.theta_c, num_partitions, &result.stats);
  JaccardClustering clustering =
      FormClusters(cluster_pairs, store, &result.stats);
  result.stats.clustering_seconds = phase.ElapsedSeconds();

  // Phase 3: centroid join with the enlarged thresholds.
  phase.Reset();
  JaccardThresholds thresholds;
  thresholds.mm = theta + 2 * options.theta_c;
  thresholds.ms = options.singleton_optimization
                      ? theta + options.theta_c
                      : thresholds.mm;
  thresholds.ss = options.singleton_optimization ? theta : thresholds.mm;
  const int prefix_m = JaccardPrefix(thresholds.mm, k);
  // Both sides of an (m, s) pair must cover its threshold (the same
  // completeness requirement as the Footrule centroid join).
  const int prefix_s = JaccardPrefix(thresholds.ms, k);

  struct Tagged {
    RankingId id;
    bool singleton;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(clustering.centroids.size() +
                 clustering.singletons.size());
  for (RankingId id : clustering.centroids) tagged.push_back({id, false});
  for (RankingId id : clustering.singletons) tagged.push_back({id, true});

  const JoinStore* store_ptr = &store;
  auto centroid_ds =
      minispark::Parallelize(ctx, std::move(tagged), num_partitions);
  auto postings = centroid_ds.FlatMap(
      [store_ptr, prefix_m, prefix_s](const Tagged& t) {
        return JaccardPostings(*store_ptr, store_ptr->RowOf(t.id),
                               t.singleton ? prefix_s : prefix_m,
                               t.singleton);
      },
      "jaccardCl/prefix");
  auto groups =
      minispark::GroupByKey(postings, num_partitions, "jaccardCl/group");
  std::vector<JoinStats> slots(static_cast<size_t>(groups.num_partitions()));
  auto rj_scored = groups.MapPartitionsWithIndex(
      [store_ptr, thresholds, &slots](
          int index,
          const std::vector<std::pair<ItemId, std::vector<PrefixPosting>>>&
              part) {
        std::vector<ScoredPair> out;
        JoinStats& local = slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& group : part) {
          JaccardNestedLoop(*store_ptr, group.second, thresholds, &out,
                            &local);
        }
        return out;
      },
      "jaccardCl/centroidJoin");
  // Force the centroid join before reading the stat slots. Force(),
  // not Cache(): single downstream consumer (MS007).
  rj_scored.Force();
  for (const JoinStats& s : slots) result.stats.MergeCounters(s);
  std::vector<ScoredPair> rj_pairs =
      minispark::Distinct(rj_scored, num_partitions, "jaccardCl/distinct")
          .Collect();

  std::unordered_set<RankingId> singleton_set(
      clustering.singletons.begin(), clustering.singletons.end());
  std::vector<CentroidPairJ> rj;
  rj.reserve(rj_pairs.size());
  for (const ScoredPair& sp : rj_pairs) {
    CentroidPairJ cp;
    cp.ci = sp.first.first;
    cp.cj = sp.first.second;
    cp.distance = DistanceOf(sp, k);
    cp.ci_singleton = singleton_set.count(cp.ci) > 0;
    cp.cj_singleton = singleton_set.count(cp.cj) > 0;
    rj.push_back(cp);
  }
  result.stats.joining_seconds = phase.ElapsedSeconds();

  // Phase 4: expansion (Algorithm 2 with double-valued distances).
  phase.Reset();
  const bool shortcut = options.triangle_upper_shortcut;

  std::vector<std::pair<RankingId, MemberRec>> cluster_kv;
  cluster_kv.reserve(clustering.pairs.size());
  for (const auto& [centroid, member, overlap] : clustering.pairs) {
    cluster_kv.push_back(
        {centroid, {member, JaccardDistanceFromOverlap(overlap, k)}});
  }
  auto clusters =
      minispark::Parallelize(ctx, std::move(cluster_kv), num_partitions);
  auto rj_ds = minispark::Parallelize(ctx, rj, num_partitions);

  auto direct = rj_ds.FlatMap(
      [theta](const CentroidPairJ& cp) {
        std::vector<ResultPair> out;
        if (cp.distance <= theta + kMargin) {
          out.push_back(MakeResultPair(cp.ci, cp.cj));
        }
        return out;
      },
      "jaccardCl/direct");

  auto grouped_clusters = minispark::GroupByKey(clusters, num_partitions,
                                                "jaccardCl/groupClusters");
  std::vector<JoinStats> intra_slots(
      static_cast<size_t>(grouped_clusters.num_partitions()));
  auto intra = grouped_clusters.MapPartitionsWithIndex(
      [store_ptr, theta, shortcut, &intra_slots](
          int index,
          const std::vector<std::pair<RankingId, std::vector<MemberRec>>>&
              part) {
        std::vector<ResultPair> out;
        JoinStats& local = intra_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [centroid, members] : part) {
          for (const MemberRec& m : members) {
            out.push_back(MakeResultPair(centroid, m.first));
          }
          for (size_t i = 0; i + 1 < members.size(); ++i) {
            for (size_t j = i + 1; j < members.size(); ++j) {
              EmitWithBounds(*store_ptr, theta, shortcut, members[i].first,
                             members[j].first, /*lower=*/0.0,
                             members[i].second + members[j].second, &out,
                             &local);
            }
          }
        }
        return out;
      },
      "jaccardCl/intra");
  // Force (not Cache) before reading the stat slots: single consumer.
  intra.Force();
  for (const JoinStats& s : intra_slots) result.stats.MergeCounters(s);

  auto rm = rj_ds.Filter(
      [](const CentroidPairJ& cp) {
        return !(cp.ci_singleton && cp.cj_singleton);
      },
      "jaccardCl/rm");
  // rm feeds both directional re-keyings — materialize it once.
  rm.Cache();
  auto rm_by_ci = rm.Map(
      [](const CentroidPairJ& cp) {
        return std::pair<RankingId, CentroidPairJ>(cp.ci, cp);
      },
      "jaccardCl/keyCi");
  auto rm_by_cj = rm.Map(
      [](const CentroidPairJ& cp) {
        return std::pair<RankingId, CentroidPairJ>(cp.cj, cp);
      },
      "jaccardCl/keyCj");

  auto j1 = minispark::Join(rm_by_ci, clusters, num_partitions,
                            "jaccardCl/j1");
  std::vector<JoinStats> j1_slots(static_cast<size_t>(j1.num_partitions()));
  auto rm_c1 = j1.MapPartitionsWithIndex(
      [store_ptr, theta, shortcut, &j1_slots](
          int index,
          const std::vector<
              std::pair<RankingId, std::pair<CentroidPairJ, MemberRec>>>&
              part) {
        std::vector<ResultPair> out;
        JoinStats& local = j1_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [ci, rec] : part) {
          const CentroidPairJ& cp = rec.first;
          const MemberRec& m = rec.second;
          EmitWithBounds(*store_ptr, theta, shortcut, m.first, cp.cj,
                         std::abs(cp.distance - m.second),
                         cp.distance + m.second, &out, &local);
        }
        return out;
      },
      "jaccardCl/membersCi");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_c1.Force();
  for (const JoinStats& s : j1_slots) result.stats.MergeCounters(s);

  auto j2 = minispark::Join(rm_by_cj, clusters, num_partitions,
                            "jaccardCl/j2");
  std::vector<JoinStats> j2_slots(static_cast<size_t>(j2.num_partitions()));
  auto rm_c2 = j2.MapPartitionsWithIndex(
      [store_ptr, theta, shortcut, &j2_slots](
          int index,
          const std::vector<
              std::pair<RankingId, std::pair<CentroidPairJ, MemberRec>>>&
              part) {
        std::vector<ResultPair> out;
        JoinStats& local = j2_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [cj, rec] : part) {
          const CentroidPairJ& cp = rec.first;
          const MemberRec& m = rec.second;
          EmitWithBounds(*store_ptr, theta, shortcut, m.first, cp.ci,
                         std::abs(cp.distance - m.second),
                         cp.distance + m.second, &out, &local);
        }
        return out;
      },
      "jaccardCl/membersCj");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_c2.Force();
  for (const JoinStats& s : j2_slots) result.stats.MergeCounters(s);

  auto j1_by_cj = j1.Map(
      [](const std::pair<RankingId,
                         std::pair<CentroidPairJ, MemberRec>>& rec) {
        return std::pair<RankingId, std::pair<CentroidPairJ, MemberRec>>(
            rec.second.first.cj, rec.second);
      },
      "jaccardCl/rekey");
  auto jmm = minispark::Join(j1_by_cj, clusters, num_partitions,
                             "jaccardCl/jmm");
  std::vector<JoinStats> jmm_slots(
      static_cast<size_t>(jmm.num_partitions()));
  auto rm_m = jmm.MapPartitionsWithIndex(
      [store_ptr, theta, shortcut, &jmm_slots](
          int index,
          const std::vector<std::pair<
              RankingId, std::pair<std::pair<CentroidPairJ, MemberRec>,
                                   MemberRec>>>& part) {
        std::vector<ResultPair> out;
        JoinStats& local = jmm_slots[static_cast<size_t>(index)];
        // Retry hygiene: a re-run attempt starts its stat slot from zero.
        local = JoinStats();
        for (const auto& [cj, rec] : part) {
          const CentroidPairJ& cp = rec.first.first;
          const MemberRec& mi = rec.first.second;
          const MemberRec& mj = rec.second;
          EmitWithBounds(*store_ptr, theta, shortcut, mi.first, mj.first,
                         cp.distance - mi.second - mj.second,
                         cp.distance + mi.second + mj.second, &out, &local);
        }
        return out;
      },
      "jaccardCl/membersBoth");
  // Force (not Cache) before reading the stat slots: single consumer.
  rm_m.Force();
  for (const JoinStats& s : jmm_slots) result.stats.MergeCounters(s);

  auto all_pairs = minispark::Union(
      minispark::Union(minispark::Union(direct, intra, "jaccardCl/u1"),
                       minispark::Union(rm_c1, rm_c2, "jaccardCl/u2"),
                       "jaccardCl/u3"),
      rm_m, "jaccardCl/u4");
  result.pairs =
      minispark::Distinct(all_pairs, num_partitions, "jaccardCl/final")
          .Collect();
  result.stats.expansion_seconds = phase.ElapsedSeconds();

  result.stats.result_pairs = result.pairs.size();
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace rankjoin

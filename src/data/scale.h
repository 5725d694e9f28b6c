#ifndef RANKJOIN_DATA_SCALE_H_
#define RANKJOIN_DATA_SCALE_H_

#include <cstdint>

#include "ranking/ranking.h"

namespace rankjoin {

/// Scales a dataset by an integer factor using the method of Vernica et
/// al. [24] as applied in the experimental survey [10] and this paper
/// (Section 7): the item domain stays unchanged and each additional copy
/// of a record is a perturbed version of the original, so the join
/// result grows roughly linearly with the dataset size.
///
/// A `swap_copy_rate` fraction of the copies differ from their source by
/// a single adjacent-rank swap (raw distance 2). These model the
/// truncation artifacts of the real DBLP/ORKU datasets and give the
/// theta_c-similarity graph its star shape: each such copy is within a
/// small clustering threshold of its source but not of the other copies
/// (pairwise distance 4). Dense distance-0 cliques — which arise from
/// exact duplicates — are deliberately not planted: every clique element
/// but one is a centroid, so a clique forms one cluster of two and its
/// other elements join as singletons instead of shrinking the joining
/// phase (see DESIGN.md).
///
/// The remaining copies drift by 1..`perturbation_ops` random edit
/// operations (adjacent swaps or item replacements).
///
/// `factor` >= 1; factor == 1 returns the input unchanged. New rankings
/// get dense ids continuing after the originals.
RankingDataset ScaleDataset(const RankingDataset& dataset, int factor,
                            uint32_t domain_size, int perturbation_ops = 3,
                            uint64_t seed = 7, double swap_copy_rate = 0.5);

}  // namespace rankjoin

#endif  // RANKJOIN_DATA_SCALE_H_

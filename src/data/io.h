#ifndef RANKJOIN_DATA_IO_H_
#define RANKJOIN_DATA_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ranking/flat_rankings.h"
#include "ranking/ranking.h"

namespace rankjoin {

/// Text format: one ranking per line, items as whitespace-separated
/// integers, top item first. An optional "id:" prefix fixes the ranking
/// id; otherwise ids are assigned by line number. Lines that are empty
/// or start with '#' are skipped.
///
///   0: 2 5 4 3 1
///   1: 1 4 5 9 0
///
/// This mirrors how the paper reads the DBLP/ORKU set files as text.

/// Reads a dataset; every ranking must have exactly `k` distinct items.
Result<RankingDataset> ReadRankings(const std::string& path, int k);

/// Writes a dataset in the same format.
Status WriteRankings(const std::string& path, const RankingDataset& dataset);

/// Preprocesses raw set records into top-k rankings the way the paper
/// prepares DBLP/ORKU (Section 7): duplicate records are removed, each
/// record is cut to its first k distinct tokens, and records with fewer
/// than k tokens are dropped. Ids are assigned densely in input order.
RankingDataset PreprocessSets(const std::vector<std::vector<ItemId>>& records,
                              int k);

/// Writes the final join result as "id1 id2" lines, sorted by
/// (id1, id2), for external diffing.
Status WriteResultPairs(
    const std::string& path,
    const std::vector<std::pair<RankingId, RankingId>>& pairs);

/// Columnar ranking file ("RKJC"): the on-disk mirror of FlatRankings,
/// designed for zero-copy loading of paper-scale inputs.
///
///   offset 0:  magic  "RKJC"           (4 bytes)
///   offset 4:  version                 (uint32 LE, currently 1)
///   offset 8:  k                       (uint32 LE)
///   offset 12: count                   (uint64 LE)
///   offset 20: ids column              (count uint32 LE)
///   offset 20 + 4*count: items column  (count*k uint32 LE)
///
/// Both column offsets are 4-byte aligned, so the loader mmaps the file
/// and wraps the columns in place — no decode pass and no per-record
/// allocation.

/// Writes `dataset` (via its flat store) in the columnar format.
Status WriteFlatRankings(const std::string& path,
                         const RankingDataset& dataset);

/// Memory-maps a columnar file and returns a dataset whose store() wraps
/// the mapped columns zero-copy (the `rankings` vector stays empty).
/// Returns InvalidArgument for a bad magic/version or a k outside
/// [1, 65535], and IoError for a file shorter than its header promises
/// or an unreadable one. The distinct-items invariant is validated once,
/// here.
Result<RankingDataset> MapFlatRankings(const std::string& path);

}  // namespace rankjoin

#endif  // RANKJOIN_DATA_IO_H_

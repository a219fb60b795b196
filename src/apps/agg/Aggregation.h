//===- apps/agg/Aggregation.h - Hash-based group-by aggregation -*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-based aggregation computing the paper's §4.4 query
///
///   SELECT G, count(*), sum(V), sum(V*V) FROM R GROUP BY G
///
/// over two table designs and three vectorization strategies (Figure 13):
///
///   linear_serial  scalar build on a linear-probing table (baseline)
///   linear_mask    conflict-masking vectorized probing on the same table
///   bucket_mask    conflict-masking on a bucketized table whose 16 slots
///                  per bucket are claimed by SIMD lane id, so identical
///                  keys in one vector land in different slots (the
///                  conflict-mitigation design of Jiang & Agrawal ICS'17,
///                  reconstructed; see DESIGN.md §5.7)
///   linear_invec   in-vector reduction of the 16 incoming rows by key,
///                  then probing with only the distinct-key lanes
///   bucket_invec   in-vector reduction + the bucketized table
///
/// Aggregates are kept as floats (counts are exact to 2^24); the build
/// phase is timed, the per-group results are collected afterwards for
/// validation.  Keys must be non-negative (the table reserves -1/-2).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_APPS_AGG_AGGREGATION_H
#define CFV_APPS_AGG_AGGREGATION_H

#include "core/RunOptions.h"
#include "util/AlignedAlloc.h"
#include "util/Stats.h"

#include <cstdint>
#include <vector>

namespace cfv {
namespace apps {

/// The five versions of Figure 13.
enum class AggVersion {
  LinearSerial,
  LinearMask,
  BucketMask,
  LinearInvec,
  BucketInvec,
};

const char *versionName(AggVersion V);

/// One output group of the query.
struct GroupAgg {
  int32_t Key = 0;
  float Cnt = 0.0f;
  float Sum = 0.0f;
  float SumSq = 0.0f;
};

struct AggResult {
  /// Build-phase wall time (the measured quantity of Figure 13).
  double Seconds = 0.0;
  /// Millions of input rows aggregated per second.
  double MRowsPerSec = 0.0;
  /// Final groups, sorted by key (collected outside the timed region).
  std::vector<GroupAgg> Groups;
  double SimdUtil = 1.0; ///< mask versions
  double MeanD1 = 0.0;   ///< invec versions
  /// Per-pass D1 / useful-lane distributions (empty unless the version
  /// that ran records them and observability is compiled in).
  LaneHistogram D1Hist;
  LaneHistogram UtilHist;

  int64_t numGroups() const { return static_cast<int64_t>(Groups.size()); }
};

/// Aggregates \p N rows of (Keys, Vals) with strategy \p V, honoring the
/// thread count and invec policy in \p O.
AggResult runAggregation(const int32_t *Keys, const float *Vals, int64_t N,
                         int64_t Cardinality, AggVersion V,
                         const core::RunOptions &O);

/// Deprecated single-core convenience overload (adaptive policy); prefer
/// the RunOptions overload or cfv::run (core/Api.h).
AggResult runAggregation(const int32_t *Keys, const float *Vals, int64_t N,
                         int64_t Cardinality, AggVersion V);

/// The Algorithm 1/2 policy enum now lives in core/RunOptions.h; this
/// alias keeps the historical apps::InvecPolicy spelling working.
using InvecPolicy = core::InvecPolicy;

/// LinearInvec with an explicit Algorithm 1/2 policy (ablation entry
/// point; other versions ignore the policy).
AggResult runAggregationWithPolicy(const int32_t *Keys, const float *Vals,
                                   int64_t N, int64_t Cardinality,
                                   InvecPolicy Policy);

} // namespace apps
} // namespace cfv

#endif // CFV_APPS_AGG_AGGREGATION_H

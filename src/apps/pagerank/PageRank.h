//===- apps/pagerank/PageRank.h - PageRank, five versions -------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge-centric PageRank (Figure 1's inner loop) in the five versions of
/// the paper's Figure 8: serial on original and on tiled data,
/// inspector/executor (tiling-and-grouping), conflict-masking, and
/// in-vector reduction.  The irregular reduction is the per-edge
/// summation sum[ny] += rank[nx] / nneighbor[nx]; each version resolves
/// the write conflicts its own way, and the result records the per-phase
/// times (computing / tiling / grouping) plus the metrics the paper
/// annotates (SIMD utilization for mask, mean D1 for invec).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_APPS_PAGERANK_PAGERANK_H
#define CFV_APPS_PAGERANK_PAGERANK_H

#include "core/RunOptions.h"
#include "graph/Graph.h"
#include "util/Stats.h"

namespace cfv {
namespace apps {

/// The five execution strategies of Figure 8.
enum class PrVersion {
  NontilingSerial,
  TilingSerial,
  TilingGrouping,
  TilingMask,
  TilingInvec,
};

/// Short id matching the paper's legend (e.g. "tiling_and_invec").
const char *versionName(PrVersion V);

struct PageRankOptions : core::RunOptions {
  PageRankOptions() { MaxIterations = 200; }

  float Damping = 0.85f;
  /// Relative L1 rank change below which iteration stops (the paper's
  /// "change of rank values being less than 0.1%").
  float Tolerance = 1e-3f;
  int TileBlockBits = 16;
};

struct PageRankResult {
  AlignedVector<float> Rank;
  int Iterations = 0;
  double ComputeSeconds = 0.0;
  double TilingSeconds = 0.0;
  double GroupingSeconds = 0.0;
  /// SIMD utilization of the conflict-masking loop (1.0 otherwise).
  double SimdUtil = 1.0;
  /// Mean distinct-conflicting-lane count observed by in-vector
  /// reduction's adaptive sampler (0 otherwise).
  double MeanD1 = 0.0;
  /// Whether the adaptive policy escalated to Algorithm 2.
  bool UsedAlg2 = false;
  /// Whether RunOptions::DeadlineSteadySeconds stopped iteration early.
  bool TimedOut = false;
  /// Per-pass D1 / useful-lane distributions (empty unless the version
  /// that ran records them and observability is compiled in).
  LaneHistogram D1Hist;
  LaneHistogram UtilHist;

  double totalSeconds() const {
    return ComputeSeconds + TilingSeconds + GroupingSeconds;
  }
};

/// Runs PageRank on \p G with strategy \p V until convergence.
PageRankResult runPageRank(const graph::EdgeList &G, PrVersion V,
                           const PageRankOptions &O = {});

} // namespace apps
} // namespace cfv

#endif // CFV_APPS_PAGERANK_PAGERANK_H

//===- apps/spmv/Spmv.h - Sparse matrix-vector multiply ---------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpMV over the paper's Sparse Matrix View (§2.2): y[r] += v * x[c] for
/// every nonzero (r, c, v) of a COO matrix is exactly the associative
/// irregular reduction the in-vector technique targets, and the kernel
/// several of the paper's related-work systems optimize on Xeon Phi.
/// Included as a worked extension beyond the paper's six applications:
///
///   CooSerial    scalar loop over the nonzeros in given order
///   CsrSerial    row-major CSR -- conflict free by construction, the
///                "fully reorganized" reference point
///   CooMask      conflict-masking over the COO stream
///   CooInvec     in-vector reduction over the COO stream
///   CooGrouping  inspector/executor (tile + group by row)
///
/// The matrix is an EdgeList (Src = row, Dst = column, Weight = value).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_APPS_SPMV_SPMV_H
#define CFV_APPS_SPMV_SPMV_H

#include "core/RunOptions.h"
#include "graph/Graph.h"
#include "util/Stats.h"

namespace cfv {
namespace apps {

enum class SpmvVersion { CooSerial, CsrSerial, CooMask, CooInvec,
                         CooGrouping };

const char *versionName(SpmvVersion V);

struct SpmvResult {
  AlignedVector<float> Y;
  double Seconds = 0.0;     ///< multiply time for all repeats
  double PrepSeconds = 0.0; ///< CSR build / tiling+grouping time
  double SimdUtil = 1.0;    ///< CooMask only
  double MeanD1 = 0.0;      ///< CooInvec only
  /// Per-pass D1 / useful-lane distributions (empty unless the version
  /// that ran records them and observability is compiled in).
  LaneHistogram D1Hist;
  LaneHistogram UtilHist;
};

/// Computes y = A * x \p Repeats times (the repeat models iterative
/// solvers, amortizing any reorganization).  \p A must be weighted, with
/// Src = row and Dst = column indices; \p X must have A.NumNodes entries.
/// \p O carries the parallel-engine thread count.
SpmvResult runSpmv(const graph::EdgeList &A, const float *X, SpmvVersion V,
                   int Repeats, const core::RunOptions &O);

/// Deprecated single-core convenience overload; prefer the RunOptions
/// overload or cfv::run (core/Api.h).
SpmvResult runSpmv(const graph::EdgeList &A, const float *X,
                   SpmvVersion V, int Repeats = 1);

} // namespace apps
} // namespace cfv

#endif // CFV_APPS_SPMV_SPMV_H

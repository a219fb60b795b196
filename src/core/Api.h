//===- core/Api.h - The paper's programming interface (§3.5) ----*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure-7 style programming interface.  The paper embeds in-vector
/// reduction into a SIMD programming framework (Huo et al., ICS'14) as
/// functions with the prototype
///
///     mask invec_op(mask active, vint idx, vtype data)
///
/// where op is the reduction operator, data is reduced in place, and the
/// returned mask marks the conflict-free lanes holding partial results.
/// This header provides those entry points over the fastest backend
/// available in the build (vint/vfloat/mask aliases included), so user
/// code can be written exactly like the paper's vectorized PageRank:
///
/// \code
///   vint Vny = vint::load(N2 + J);
///   vfloat Vadd = vfloat::gather(Rank, Vnx) / vfloat::gather(Nn, Vnx);
///   mask M = invec_add(simd::kAllLanes, Vny, Vadd);
///   cfv::core::accumulateScatter<simd::OpAdd>(M, Vny, Vadd, Sum);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CFV_CORE_API_H
#define CFV_CORE_API_H

#include "core/InvecReduce.h"

namespace cfv {

/// Convenience aliases over the fastest backend in this build.
using vint = simd::VecI32<simd::NativeBackend>;
using vfloat = simd::VecF32<simd::NativeBackend>;
using mask = simd::Mask16;

/// In-vector summation; returns the conflict-free scatter mask.
inline mask invec_add(mask Active, vint Idx, vfloat &Data) {
  return core::invecReduce<simd::OpAdd>(Active, Idx, Data).Ret;
}
inline mask invec_add(mask Active, vint Idx, vint &Data) {
  return core::invecReduce<simd::OpAdd>(Active, Idx, Data).Ret;
}

/// In-vector minimum (e.g. SSSP distance relaxation).
inline mask invec_min(mask Active, vint Idx, vfloat &Data) {
  return core::invecReduce<simd::OpMin>(Active, Idx, Data).Ret;
}
inline mask invec_min(mask Active, vint Idx, vint &Data) {
  return core::invecReduce<simd::OpMin>(Active, Idx, Data).Ret;
}

/// In-vector maximum (e.g. SSWP width relaxation).
inline mask invec_max(mask Active, vint Idx, vfloat &Data) {
  return core::invecReduce<simd::OpMax>(Active, Idx, Data).Ret;
}
inline mask invec_max(mask Active, vint Idx, vint &Data) {
  return core::invecReduce<simd::OpMax>(Active, Idx, Data).Ret;
}

/// In-vector product.
inline mask invec_mul(mask Active, vint Idx, vfloat &Data) {
  return core::invecReduce<simd::OpMul>(Active, Idx, Data).Ret;
}
inline mask invec_mul(mask Active, vint Idx, vint &Data) {
  return core::invecReduce<simd::OpMul>(Active, Idx, Data).Ret;
}

//===----------------------------------------------------------------------===//
// 64-bit extension (8 lanes, vpconflictq)
//===----------------------------------------------------------------------===//

/// 8-lane 64-bit vectors for double-precision / wide-accumulator
/// reductions; only the low 8 mask bits are significant
/// (simd::kAllLanes64).
using vlong = simd::VecI64<simd::NativeBackend>;
using vdouble = simd::VecF64<simd::NativeBackend>;

inline mask invec_add(mask Active, vlong Idx, vdouble &Data) {
  return core::invecReduce<simd::OpAdd>(Active, Idx, Data).Ret;
}
inline mask invec_add(mask Active, vlong Idx, vlong &Data) {
  return core::invecReduce<simd::OpAdd>(Active, Idx, Data).Ret;
}
inline mask invec_min(mask Active, vlong Idx, vdouble &Data) {
  return core::invecReduce<simd::OpMin>(Active, Idx, Data).Ret;
}
inline mask invec_min(mask Active, vlong Idx, vlong &Data) {
  return core::invecReduce<simd::OpMin>(Active, Idx, Data).Ret;
}
inline mask invec_max(mask Active, vlong Idx, vdouble &Data) {
  return core::invecReduce<simd::OpMax>(Active, Idx, Data).Ret;
}
inline mask invec_max(mask Active, vlong Idx, vlong &Data) {
  return core::invecReduce<simd::OpMax>(Active, Idx, Data).Ret;
}

} // namespace cfv

//===----------------------------------------------------------------------===//
// The unified run facade
//===----------------------------------------------------------------------===//
//
// One entry point over all nine applications: fill an AppRequest, call
// cfv::run, receive an AppResult or a Status describing what was wrong
// with the request.  The per-app free functions (apps::runPageRank,
// apps::runFrontier, ...) remain as thin wrappers, but new callers --
// cfv_run, the benchmarks, external users -- should come through here:
// the facade validates inputs up front, resolves the backend without
// mutating process-global dispatch state, threads the RunOptions base
// (backend / threads / iterations / invec policy) into every app
// uniformly, and reports what actually ran (backend, worker count).

#include "core/Dispatch.h"
#include "util/Stats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cfv {

namespace graph {
class PreparedGraph; // graph/Prepared.h
}

/// The nine applications of the evaluation (frontier-based graph
/// traversal counts once per algorithm).
enum class AppId {
  PageRank,
  PageRank64,
  Sssp,
  Sswp,
  Wcc,
  Bfs,
  Moldyn,
  Agg,
  Rbk,
  Spmv,
  Mesh,
};

/// Execution-strategy vocabulary shared across applications.  Each app
/// accepts a subset (run() rejects the rest with InvalidArgument):
///
///   PageRank   : Serial TilingSerial Grouping Mask Invec
///   PageRank64 : Serial Invec
///   Sssp/Sswp/Wcc/Bfs : Serial Mask Invec Grouping
///   Moldyn     : Serial Grouping Mask Invec
///   Agg        : Serial Mask BucketMask Invec BucketInvec
///   Rbk        : Default only (runs the fixed three-way comparison)
///   Spmv       : Serial CsrSerial Mask Invec Grouping
///   Mesh       : Serial Mask Invec Grouping
///
/// Default picks the paper's headline strategy for the app (in-vector
/// reduction wherever it exists).
enum class AppVersion {
  Default,
  Serial,
  TilingSerial,
  Grouping,
  Mask,
  Invec,
  BucketMask,
  BucketInvec,
  CsrSerial,
};

/// Canonical CLI spelling ("pagerank", "sssp", ...).
const char *appIdName(AppId A);

/// Parses an application name as cfv_run spells them.
Expected<AppId> parseAppId(const std::string &Name);

/// Parses a version name for \p App.  Accepts the unified spellings
/// ("serial", "mask", "invec", "grouping", ...) plus the historical
/// per-app ones ("tiling_and_invec", "bucket_invec", "csr_serial",
/// "default").
Expected<AppVersion> parseAppVersion(AppId App, const std::string &Name);

/// Everything cfv::run needs.  Fill the fields your application reads;
/// the rest are ignored.  Pointers are borrowed, never owned.
struct AppRequest {
  AppId App = AppId::PageRank;
  AppVersion Version = AppVersion::Default;

  /// Backend / threads / iteration cap / invec policy.  MaxIterations 0
  /// defers to the app default (PageRank 200, frontier apps 1000, Moldyn
  /// 20, Mesh 50, Rbk 1000, Spmv 1 repeat).
  core::RunOptions Options;

  /// Graph input (PageRank, PageRank64, Sssp, Sswp, Wcc, Bfs, Rbk, Spmv).
  /// Sssp/Sswp/Spmv require edge weights.
  const graph::EdgeList *Graph = nullptr;
  /// Prepared-dataset handle (graph/Prepared.h): an alternative to Graph
  /// that additionally shares memoized derived schedules (CSR adjacency,
  /// inspector tiling) across runs, the serving layer's amortization
  /// path.  When set, Graph may be left null; run() wires the prepared
  /// artifacts into RunOptions::SharedTiling / SharedCsr for the apps
  /// that consume them and charges any first-use materialization to
  /// AppResult::PrepSeconds.  Borrowed, never owned: the caller (for the
  /// serving layer, a shared_ptr from service::DatasetCache) must keep it
  /// alive for the duration of the run.
  const graph::PreparedGraph *Prepared = nullptr;
  /// Source vertex for the frontier apps.
  int32_t Source = 0;

  /// Dense input vector for Spmv (numNodes entries); null uses ones.
  const float *X = nullptr;

  /// Key/value streams for Agg.
  const int32_t *Keys = nullptr;
  const float *Vals = nullptr;
  int64_t Rows = 0;
  /// Key cardinality for Agg (table sizing); must be in [1, 2^24].
  int64_t Cardinality = 0;

  /// Simulation parameters for Moldyn (its RunOptions base is ignored in
  /// favor of AppRequest::Options).
  apps::MoldynOptions Moldyn;

  /// Mesh input for Mesh.
  const apps::Mesh *MeshIn = nullptr;
  /// Initial cell values for Mesh (NumCells entries).
  const float *U0 = nullptr;
  /// Diffusion time step for Mesh.
  float Dt = 0.4f;
};

/// What ran and what came out.  Per-app payloads live in the dedicated
/// fields; scalar metrics are filled whenever the app reports them.
struct AppResult {
  AppId App = AppId::PageRank;
  /// The concrete per-app version name that ran ("tiling_and_invec",
  /// "bucket_invec", ...).
  std::string VersionName;
  /// The backend that actually executed (after graceful degradation).
  core::BackendKind Backend = core::BackendKind::Scalar;
  /// Worker threads the parallel engine used.
  int Threads = 1;

  int Iterations = 0;
  double ComputeSeconds = 0.0;
  /// Inspector time (tiling + grouping / CSR build), where applicable;
  /// includes first-use materialization of prepared-dataset artifacts.
  double PrepSeconds = 0.0;
  double SimdUtil = 1.0;
  double MeanD1 = 0.0;
  int64_t EdgesProcessed = 0;
  /// Whether RunOptions::DeadlineSteadySeconds stopped the app's
  /// iteration loop before convergence (PageRank, frontier apps).
  bool TimedOut = false;
  /// Whether the adaptive policy committed to Algorithm 2 anywhere in
  /// this run.
  bool UsedAlg2 = false;
  /// Distribution of distinct conflicting lanes (D1) per vector pass and
  /// of useful lanes per pass, merged across workers.  Empty when the
  /// version that ran does not track them or when observability is
  /// compiled out; the run facade flushes them into the metrics registry.
  LaneHistogram D1Hist;
  LaneHistogram UtilHist;

  /// PageRank ranks, frontier values, Spmv y, Mesh final state.
  AlignedVector<float> Values;
  /// PageRank64 ranks.
  AlignedVector<double> Values64;
  /// Agg per-group aggregates.
  std::vector<apps::GroupAgg> Groups;
  /// Rbk three-way comparison timings/checksums.
  apps::RbkResult Rbk;
  /// Moldyn phase times and energies.
  apps::MoldynResult Moldyn;
};

/// Runs one application described by \p R.  Returns InvalidArgument for
/// malformed requests (missing inputs, version not available for the
/// app, negative thread count, ...); never mutates process-global
/// dispatch state.
Expected<AppResult> run(const AppRequest &R);

/// A scalar summarizing \p R's output so runs are comparable at a glance
/// (rank mass, |y|^2, group-sum, checksums...).  Shared by cfv_run's
/// report/JSON output and the serving layer's response digests;
/// non-finite entries (unreachable vertices hold +/-inf) are skipped so
/// the value is always a valid JSON number.
double resultChecksum(const AppResult &R);

} // namespace cfv

#endif // CFV_CORE_API_H

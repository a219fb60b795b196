//===- core/RunOptions.h - Shared execution options -------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option vocabulary every application run shares: which compiled-in
/// kernel set to use, how many cores to spread the irregular reduction
/// over (core/ParallelEngine.h), an iteration cap, and the Algorithm 1/2
/// policy of §3.4.  Per-app option structs (PageRankOptions,
/// FrontierOptions, MoldynOptions) derive from RunOptions so the unified
/// cfv::run facade (core/Api.h) can populate them uniformly; apps whose
/// entry points take no option struct receive a RunOptions directly.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_CORE_RUNOPTIONS_H
#define CFV_CORE_RUNOPTIONS_H

#include "util/Clock.h"

#include <atomic>

namespace cfv {

// Derived-schedule types live above core in the layering; RunOptions only
// carries borrowed pointers to them, so forward declarations suffice.
namespace inspector {
struct TilingResult;
}
namespace graph {
struct Csr;
}

namespace core {

/// A concrete kernel set compiled into the fat binary.
enum class BackendKind { Scalar, Avx2, Avx512 };

/// A backend *request*: Auto defers to the process-wide selection
/// (setBackend / CFV_BACKEND / best available, see core/Dispatch.h).
enum class BackendChoice { Auto, Scalar, Avx2, Avx512 };

/// Which in-vector reduction variant the invec versions use (§3.4):
/// Algorithm 1, Algorithm 2, or the paper's sampling policy that starts
/// on Algorithm 1 and switches when the observed mean D1 exceeds 1.
enum class InvecPolicy { Alg1, Alg2, Adaptive };

/// Options common to every application run.
struct RunOptions {
  BackendChoice Backend = BackendChoice::Auto;
  /// Worker threads for the parallel engine.  0 defers to CFV_THREADS
  /// (which defaults to 1, keeping library behavior serial unless asked);
  /// 1 is the exact single-core path; N > 1 privatizes accumulators
  /// across N workers.  See core::resolveThreads.
  int Threads = 0;
  /// Iteration cap / repeat count; 0 means the application's default.
  /// Derived option structs overwrite this with their own default.
  int MaxIterations = 0;
  /// Algorithm 1/2 policy for the invec versions that consult it
  /// (aggregation; the other apps use the adaptive sampler internally).
  InvecPolicy Policy = InvecPolicy::Adaptive;

  /// Absolute deadline in steadyNowSeconds() terms (0 = none).  Apps with
  /// convergence loops (PageRank, the frontier algorithms) check between
  /// iterations and stop early, reporting TimedOut on their result; apps
  /// without an iteration structure ignore it.  The serving layer sets
  /// this from per-request timeouts so a stuck request cancels
  /// gracefully instead of occupying a scheduler worker forever.
  double DeadlineSteadySeconds = 0.0;

  /// External cancellation flag (borrowed; nullptr = none).  Checked at
  /// the same iteration boundaries as the deadline: the scheduler's
  /// watchdog raises it when it has already failed the request, so the
  /// abandoned run stops burning cores instead of finishing a result
  /// nobody will read.  The flag must outlive the run.
  const std::atomic<bool> *CancelFlag = nullptr;

  /// Precomputed destination-block tiling to reuse instead of running the
  /// tiling inspector (borrowed; graph::PreparedGraph::tiling memoizes
  /// one per block size).  Apps verify compatibility (matching BlockBits
  /// and edge count) and fall back to their own inspector otherwise.
  const inspector::TilingResult *SharedTiling = nullptr;

  /// Precomputed CSR adjacency to reuse instead of graph::buildCsr
  /// (borrowed, must describe the same graph).  Consumed by the frontier
  /// engine's expansion and SpMV's csr_serial version.
  const graph::Csr *SharedCsr = nullptr;

};

/// Monotonic clock reading in seconds, the time base for
/// RunOptions::DeadlineSteadySeconds.  Delegates to the canonical clock
/// (util/Clock.h) so deadlines, timers, and trace spans agree on "now".
inline double steadyNowSeconds() { return monotonicSeconds(); }

/// True when \p O carries a deadline that has already passed.
inline bool deadlinePassed(const RunOptions &O) {
  return O.DeadlineSteadySeconds > 0.0 &&
         steadyNowSeconds() >= O.DeadlineSteadySeconds;
}

/// The cooperative stop check for iteration loops: deadline expired or
/// cancellation requested.  Apps treat both identically (stop now, report
/// TimedOut with the work done so far).
inline bool shouldStop(const RunOptions &O) {
  if (O.CancelFlag && O.CancelFlag->load(std::memory_order_relaxed))
    return true;
  return deadlinePassed(O);
}

} // namespace core
} // namespace cfv

#endif // CFV_CORE_RUNOPTIONS_H

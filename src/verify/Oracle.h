//===-- verify/Oracle.h - Metamorphic differential oracle -------*- C++ -*-===//
//
// The oracle hierarchy (DESIGN.md §11):
//
//   classifier    pattern::classifyRange against the naive std::set/
//                 std::map reference every workload is tagged with at
//                 generation time (always on -- one scan);
//   kernel tier   every compiled backend x {invec-alg1, invec-alg2,
//                 masking, adaptive} x {1, N} privatized chunks against a
//                 scalar double-precision reference, for float add (ULP
//                 budget scaled by reduction depth), float min/max
//                 (exact), and int32 add/min/max (exact);
//   system tier   cfv::run over the same stream lifted to a SNAP graph:
//                 every version x backend x thread count of pagerank,
//                 sssp, and spmv against the serial scalar run;
//   service tier  the stream written as a SNAP file and served twice by
//                 service::Service -- cold then cached -- asserting both
//                 runs agree with the direct facade call.
//
// Failures shrink to minimal reproducers (greedy delta-debugging on the
// failing combination only) and dump as replayable corpus files; every
// failure also carries a one-line JSON record so CI can archive it.
//
//===----------------------------------------------------------------------===//

#ifndef CFV_VERIFY_ORACLE_H
#define CFV_VERIFY_ORACLE_H

#include "verify/Gen.h"
#include "verify/Kernels.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cfv {
namespace verify {

struct OracleOptions {
  bool KernelTier = true;
  bool SystemTier = false;
  bool ServiceTier = false;
  /// Exercise the AVX-512 kernel set when the build compiled it and the
  /// host can run it; the scalar set always runs.
  bool UseAvx512 = true;
  /// Exercise the AVX2 (synthesized conflict detection, 8-lane) kernel
  /// set when the build compiled it and the host can run it.
  bool UseAvx2 = true;
  /// Deliberate defect compiled into the pipelines (oracle self-test).
  InjectedBug Bug = InjectedBug::None;
  /// Privatized chunk counts per pipeline (1 = plain loop; >1 mirrors
  /// the ParallelEngine's per-worker accumulators + merge).
  std::vector<int> ChunkCounts = {1, 3};
  /// Where shrunken reproducers are written; empty disables corpus dumps.
  std::string CorpusDir;
  /// Scratch directory for service-tier SNAP files (defaults to
  /// CorpusDir, else /tmp).
  std::string ScratchDir;
};

struct OracleFailure {
  CaseSpec Spec;        ///< spec of the original (pre-shrink) case
  std::string Where;    ///< "classifier" | "kernel" | "system" | "service"
  std::string Pipeline; ///< pipeline or "app/version" tag
  std::string Backend;
  std::string Op;       ///< operator (kernel tier) or "" elsewhere
  int Chunks = 1;
  int64_t Elements = 0; ///< stream length after shrinking
  int64_t Slot = -1;    ///< first disagreeing slot
  double Want = 0.0;
  double Got = 0.0;
  std::string Detail;
  std::string CorpusPath; ///< shrunken reproducer, "" if not written

  /// One-line structured record: {"ok":false,"error":"oracle_mismatch",...}.
  std::string toJson() const;
};

/// Runs every enabled tier over \p W.  Returns the first failure, already
/// shrunk and (when OracleOptions::CorpusDir is set) dumped as a corpus
/// file; std::nullopt when every combination agrees.
std::optional<OracleFailure> checkWorkload(const Workload &W,
                                           const OracleOptions &O);

/// Greedy delta-debugging: removes stream segments (halving lengths down
/// to single elements), then compacts the index universe, as long as
/// \p StillFails holds.  \p W must fail on entry; the result does too.
/// Exposed for the harness's own tests.
Workload shrinkWorkload(Workload W,
                        const std::function<bool(const Workload &)> &StillFails);

} // namespace verify
} // namespace cfv

#endif // CFV_VERIFY_ORACLE_H

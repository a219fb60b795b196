//===-- verify/Kernels.h - Variant-compiled oracle pipelines ----*- C++ -*-===//
//
// Pipeline executors for the differential oracle, compiled once per backend
// variant exactly like the application kernels (see core/Variant.h and
// src/CMakeLists.txt): the baseline pass defines verify::b_scalar::*, the
// AVX2 object-library pass verify::b_avx2::*, and the AVX-512 pass
// verify::b_avx512::*.  Oracle.cpp binds them at runtime behind
// core::avx2Available()/avx512Available(), so one cfv_check binary
// differentially tests the real intrinsics paths (at 8 and 16 lanes)
// against the scalar emulation on the same stream.
//
// Each pipeline is the full composition the applications rely on -- block
// loop, tail masking, in-vector reduction (Alg 1 or 2), conflict-masking
// retry loop, or the adaptive policy -- plus chunked privatized execution
// (identity-filled private arrays merged in order) mirroring what the
// ParallelEngine does across workers.
//
// InjectedBug deliberately breaks a pipeline in a paper-relevant way so the
// harness can prove the oracle catches and shrinks real kernel bugs; the
// production kernels are never touched.
//
//===----------------------------------------------------------------------===//

#ifndef CFV_VERIFY_KERNELS_H
#define CFV_VERIFY_KERNELS_H

#include "util/AlignedAlloc.h"
#include "util/Status.h"
#include "verify/Gen.h"

#include <string>

namespace cfv {
namespace verify {

/// The kernel compositions under differential test.
enum class Pipeline {
  Invec1,  ///< block loop + invecReduce (Algorithm 1) + scatter
  Invec2,  ///< invecReduce2 two-subset protocol + mergeAux (Algorithm 2)
  Masking, ///< conflict-masking retry loop (maskedStreamLoop)
  Adaptive ///< AdaptiveReducer policy (Alg1 window, may commit to Alg2)
};
constexpr int kNumPipelines = 4;
const char *pipelineName(Pipeline P);

/// Associative operators exercised.  Add is inexact under reassociation
/// (tolerance model applies); Min/Max are exact in any association.
enum class OpKind { Add, Min, Max };
constexpr int kNumOpKinds = 3;
const char *opKindName(OpKind K);

/// Deliberate kernel defects for oracle self-tests and cfv_check --inject.
enum class InjectedBug {
  None,
  DropConflictLane, ///< drop one conflict-free lane from the commit mask
                    ///< whenever the vector had conflicts (Alg 1/2)
  SkipTail,         ///< process only full vector-width blocks, drop the tail
  NoAuxMerge        ///< Algorithm 2 / adaptive skip the final mergeAux
};
const char *injectedBugName(InjectedBug B);
Expected<InjectedBug> parseInjectedBug(const std::string &Name);

// Per-variant entry points.  \p Chunks splits the stream into that many
// contiguous privatized chunks merged deterministically (1 = the plain
// single-accumulator loop).  The integer overload derives its payload via
// intPayload(W) so float and integer runs replay from one corpus file.
#define CFV_VERIFY_KERNEL_DECLS                                              \
  AlignedVector<float> runPipelineF32(Pipeline P, OpKind Op,                 \
                                      const Workload &W, int Chunks,         \
                                      InjectedBug Bug);                      \
  AlignedVector<int32_t> runPipelineI32(Pipeline P, OpKind Op,               \
                                        const Workload &W, int Chunks,       \
                                        InjectedBug Bug);

namespace b_scalar {
CFV_VERIFY_KERNEL_DECLS
} // namespace b_scalar

namespace b_avx2 {
CFV_VERIFY_KERNEL_DECLS
} // namespace b_avx2

namespace b_avx512 {
CFV_VERIFY_KERNEL_DECLS
} // namespace b_avx512

#undef CFV_VERIFY_KERNEL_DECLS

} // namespace verify
} // namespace cfv

#endif // CFV_VERIFY_KERNELS_H

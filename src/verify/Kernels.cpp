//===-- verify/Kernels.cpp - Variant-compiled oracle pipelines ------------===//
//
// Compiled once per tier: baseline ISA into verify::b_scalar and (when
// the toolchain supports them) with AVX2 flags into verify::b_avx2 and
// AVX-512 flags into verify::b_avx512 via the cfv_avx2 / cfv_avx512
// object libraries.  simd::NativeBackend resolves per-TU, so the same
// source exercises real intrinsics in the wide passes and the scalar
// emulation in the baseline one — at each backend's own lane width.
//
//===----------------------------------------------------------------------===//

#include "verify/Kernels.h"

#include "core/Adaptive.h"
#include "core/InvecReduce.h"
#include "core/Variant.h"
#include "masking/ConflictMask.h"
#include "simd/Backend.h"
#include "simd/Ops.h"
#include "simd/Traits.h"

namespace cfv {
namespace verify {

#if CFV_VARIANT_PRIMARY
// Shared (variant-independent) helpers: defined only in the primary pass
// so the twice-compiled TU does not violate the one-definition rule.
const char *pipelineName(Pipeline P) {
  switch (P) {
  case Pipeline::Invec1:
    return "invec_alg1";
  case Pipeline::Invec2:
    return "invec_alg2";
  case Pipeline::Masking:
    return "masking";
  case Pipeline::Adaptive:
    return "adaptive";
  }
  return "unknown";
}

const char *opKindName(OpKind K) {
  switch (K) {
  case OpKind::Add:
    return "add";
  case OpKind::Min:
    return "min";
  case OpKind::Max:
    return "max";
  }
  return "unknown";
}

const char *injectedBugName(InjectedBug B) {
  switch (B) {
  case InjectedBug::None:
    return "none";
  case InjectedBug::DropConflictLane:
    return "drop_conflict_lane";
  case InjectedBug::SkipTail:
    return "skip_tail";
  case InjectedBug::NoAuxMerge:
    return "no_aux_merge";
  }
  return "unknown";
}

Expected<InjectedBug> parseInjectedBug(const std::string &Name) {
  for (InjectedBug B : {InjectedBug::None, InjectedBug::DropConflictLane,
                        InjectedBug::SkipTail, InjectedBug::NoAuxMerge})
    if (Name == injectedBugName(B))
      return B;
  return Status::error(ErrorCode::InvalidArgument,
                       "unknown injected bug '" + Name +
                           "' (none, drop_conflict_lane, skip_tail, "
                           "no_aux_merge)");
}
#endif // CFV_VARIANT_PRIMARY

namespace CFV_VARIANT_NS {
namespace {

using B = simd::NativeBackend;
using simd::Mask16;
constexpr int kLanes = simd::BackendTraits<B>::kLanes;
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

inline Mask16 tailMask(int64_t Left) {
  return Left >= kLanes ? kAllLanes
                        : static_cast<Mask16>((1u << Left) - 1u);
}

inline int64_t effectiveLen(int64_t N, InjectedBug Bug) {
  return Bug == InjectedBug::SkipTail ? (N / kLanes) * kLanes : N;
}

template <typename Op, typename T>
void invec1Chunk(const int32_t *Idx, const T *Val, int64_t N, T *Out,
                 InjectedBug Bug) {
  using V = simd::VecForT<T, B>;
  using IV = simd::VecI32<B>;
  const int64_t End = effectiveLen(N, Bug);
  for (int64_t I = 0; I < End; I += kLanes) {
    const Mask16 Active = tailMask(End - I);
    const IV Iv = IV::maskLoad(IV::zero(), Active, Idx + I);
    V Vv = V::maskLoad(V::broadcast(Op::template identity<T>()), Active,
                       Val + I);
    const core::InvecResult R = core::invecReduce<Op>(Active, Iv, Vv);
    Mask16 Commit = R.Ret;
    if (Bug == InjectedBug::DropConflictLane && R.Distinct > 0)
      Commit = static_cast<Mask16>(Commit & (Commit - 1u));
    core::accumulateScatter<Op>(Commit, Iv, Vv, Out);
  }
}

template <typename Op, typename T>
void invec2Chunk(const int32_t *Idx, const T *Val, int64_t N, T *Out,
                 int32_t ArraySize, InjectedBug Bug) {
  using V = simd::VecForT<T, B>;
  using IV = simd::VecI32<B>;
  AlignedVector<T> Aux(static_cast<size_t>(ArraySize));
  core::fillIdentity<Op>(Aux.data(), Aux.size());
  const int64_t End = effectiveLen(N, Bug);
  for (int64_t I = 0; I < End; I += kLanes) {
    const Mask16 Active = tailMask(End - I);
    const IV Iv = IV::maskLoad(IV::zero(), Active, Idx + I);
    V Vv = V::maskLoad(V::broadcast(Op::template identity<T>()), Active,
                       Val + I);
    const core::Invec2Result R = core::invecReduce2<Op>(Active, Iv, Vv);
    Mask16 Commit1 = R.Ret1;
    if (Bug == InjectedBug::DropConflictLane && R.Distinct > 0)
      Commit1 = static_cast<Mask16>(Commit1 & (Commit1 - 1u));
    core::accumulateScatter<Op>(Commit1, Iv, Vv, Out);
    core::accumulateScatter<Op>(R.Ret2, Iv, Vv, Aux.data());
  }
  if (Bug != InjectedBug::NoAuxMerge)
    core::mergeAux<Op>(Out, Aux.data(), Aux.size());
}

template <typename Op, typename T>
void maskingChunk(const int32_t *Idx, const T *Val, int64_t N, T *Out,
                  InjectedBug Bug) {
  using V = simd::VecForT<T, B>;
  using IV = simd::VecI32<B>;
  auto LoadIdx = [&](IV Pos, Mask16 Lanes) {
    return IV::maskGather(IV::zero(), Lanes, Idx, Pos);
  };
  auto Commit = [&](Mask16 Safe, IV Pos, IV Iv) {
    const V Id = V::broadcast(Op::template identity<T>());
    const V Vv = V::maskGather(Id, Safe, Val, Pos);
    const V Old = V::maskGather(Id, Safe, Out, Iv);
    Op::template combine<V>(Old, Vv).maskScatter(Safe, Out, Iv);
  };
  masking::maskedStreamLoop<B>(effectiveLen(N, Bug), LoadIdx,
                               masking::AllLanesNeedUpdate{}, Commit);
}

template <typename Op, typename T>
void adaptiveChunk(const int32_t *Idx, const T *Val, int64_t N, T *Out,
                   int32_t ArraySize, InjectedBug Bug) {
  using V = simd::VecForT<T, B>;
  using IV = simd::VecI32<B>;
  AlignedVector<T> Aux(static_cast<size_t>(ArraySize));
  core::fillIdentity<Op>(Aux.data(), Aux.size());
  // A short sampling window so the generated streams (often < 64 vectors)
  // actually reach the commit point and both policy arms get coverage.
  core::AdaptiveReducer<Op, T, B> Red(Aux.data(), Aux.size(), 4);
  const int64_t End = effectiveLen(N, Bug);
  for (int64_t I = 0; I < End; I += kLanes) {
    const Mask16 Active = tailMask(End - I);
    const IV Iv = IV::maskLoad(IV::zero(), Active, Idx + I);
    V Vv = V::maskLoad(V::broadcast(Op::template identity<T>()), Active,
                       Val + I);
    const Mask16 Commit = Red.reduce(Active, Iv, Vv);
    core::accumulateScatter<Op>(Commit, Iv, Vv, Out);
  }
  if (Bug != InjectedBug::NoAuxMerge)
    Red.mergeInto(Out);
}

/// Chunked privatized execution: identity-filled private arrays merged in
/// chunk order, the same shape the ParallelEngine gives each worker.
template <typename Op, typename T>
AlignedVector<T> runTyped(Pipeline P, const CaseSpec &Spec,
                          const int32_t *Idx, const T *Val, int Chunks,
                          InjectedBug Bug) {
  const int32_t U = Spec.Universe;
  AlignedVector<T> Out(static_cast<size_t>(U));
  core::fillIdentity<Op>(Out.data(), Out.size());
  const int64_t N = Spec.N;
  if (Chunks < 1)
    Chunks = 1;
  for (int C = 0; C < Chunks; ++C) {
    const int64_t Lo = N * C / Chunks;
    const int64_t Hi = N * (C + 1) / Chunks;
    if (Lo >= Hi)
      continue;
    AlignedVector<T> Priv(static_cast<size_t>(U));
    core::fillIdentity<Op>(Priv.data(), Priv.size());
    switch (P) {
    case Pipeline::Invec1:
      invec1Chunk<Op>(Idx + Lo, Val + Lo, Hi - Lo, Priv.data(), Bug);
      break;
    case Pipeline::Invec2:
      invec2Chunk<Op>(Idx + Lo, Val + Lo, Hi - Lo, Priv.data(), U, Bug);
      break;
    case Pipeline::Masking:
      maskingChunk<Op>(Idx + Lo, Val + Lo, Hi - Lo, Priv.data(), Bug);
      break;
    case Pipeline::Adaptive:
      adaptiveChunk<Op>(Idx + Lo, Val + Lo, Hi - Lo, Priv.data(), U, Bug);
      break;
    }
    for (int32_t I = 0; I < U; ++I)
      Out[static_cast<size_t>(I)] = Op::template apply<T>(
          Out[static_cast<size_t>(I)], Priv[static_cast<size_t>(I)]);
  }
  return Out;
}

template <typename T>
AlignedVector<T> runAnyOp(Pipeline P, OpKind Op, const CaseSpec &Spec,
                          const int32_t *Idx, const T *Val, int Chunks,
                          InjectedBug Bug) {
  switch (Op) {
  case OpKind::Add:
    return runTyped<simd::OpAdd, T>(P, Spec, Idx, Val, Chunks, Bug);
  case OpKind::Min:
    return runTyped<simd::OpMin, T>(P, Spec, Idx, Val, Chunks, Bug);
  case OpKind::Max:
    return runTyped<simd::OpMax, T>(P, Spec, Idx, Val, Chunks, Bug);
  }
  return {};
}

} // namespace

AlignedVector<float> runPipelineF32(Pipeline P, OpKind Op, const Workload &W,
                                    int Chunks, InjectedBug Bug) {
  return runAnyOp<float>(P, Op, W.Spec, W.Idx.data(), W.Val.data(), Chunks,
                         Bug);
}

AlignedVector<int32_t> runPipelineI32(Pipeline P, OpKind Op,
                                      const Workload &W, int Chunks,
                                      InjectedBug Bug) {
  const AlignedVector<int32_t> Payload = intPayload(W);
  return runAnyOp<int32_t>(P, Op, W.Spec, W.Idx.data(), Payload.data(),
                           Chunks, Bug);
}

} // namespace CFV_VARIANT_NS

} // namespace verify
} // namespace cfv

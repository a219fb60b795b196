//===- apps/spmv/Spmv.cpp - Sparse matrix-vector multiply -----------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/spmv/Spmv.h"

#include "core/Backends.h"
#include "core/InvecReduce.h"
#include "core/ParallelEngine.h"
#include "core/Variant.h"
#include "simd/Traits.h"
#include "inspector/Grouping.h"
#include "inspector/Tiling.h"
#include "masking/ConflictMask.h"
#include "obs/Trace.h"
#include "util/Stats.h"
#include "util/Timer.h"

#include <cassert>
#include <vector>

using namespace cfv;
using namespace cfv::apps;

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
using simd::Mask16;
constexpr int kLanes = B::kLanes;
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

#if CFV_VARIANT_PRIMARY
const char *apps::versionName(SpmvVersion V) {
  switch (V) {
  case SpmvVersion::CooSerial:
    return "coo_serial";
  case SpmvVersion::CsrSerial:
    return "csr_serial";
  case SpmvVersion::CooMask:
    return "coo_mask";
  case SpmvVersion::CooInvec:
    return "coo_invec";
  case SpmvVersion::CooGrouping:
    return "coo_grouping";
  }
  return "unknown";
}
#endif // CFV_VARIANT_PRIMARY

namespace {

void multiplyCooSerial(const graph::EdgeList &A, const float *X, int64_t Lo,
                       int64_t Hi, core::FloatSink Out) {
  for (int64_t E = Lo; E < Hi; ++E)
    Out.add(A.Src[E], A.Weight[E] * X[A.Dst[E]]);
}

/// CSR rows are disjoint accumulation targets, so row chunks write the
/// shared output directly -- no privatization needed at any thread count.
void multiplyCsrSerial(const graph::Csr &C, const float *X, int32_t RowLo,
                       int32_t RowHi, float *Y) {
  for (int32_t R = RowLo; R < RowHi; ++R) {
    float Acc = 0.0f;
    for (int64_t E = C.RowBegin[R], End = C.RowBegin[R + 1]; E < End; ++E)
      Acc += C.Weight[E] * X[C.Col[E]];
    Y[R] += Acc;
  }
}

void multiplyCooMask(const graph::EdgeList &A, const float *X, int64_t Lo,
                     int64_t Hi, core::FloatSink Out, SimdUtilCounter &Util) {
  const int32_t *Src = A.Src.data() + Lo;
  const int32_t *Dst = A.Dst.data() + Lo;
  const float *Wt = A.Weight.data() + Lo;
  auto LoadIdx = [&](IVec Pos, Mask16 Lanes) {
    return IVec::maskGather(IVec::zero(), Lanes, Src, Pos);
  };
  auto Commit = [&](Mask16 Safe, IVec Pos, IVec Row) {
    const IVec Col = IVec::maskGather(IVec::zero(), Safe, Dst, Pos);
    const FVec V = FVec::maskGather(FVec::zero(), Safe, Wt, Pos);
    const FVec Xc = FVec::maskGather(FVec::zero(), Safe, X, Col);
    Out.commit(Safe, Row, V * Xc);
  };
  masking::maskedStreamLoop<B>(Hi - Lo, LoadIdx,
                               masking::AllLanesNeedUpdate{}, Commit, &Util);
}

void multiplyCooInvec(const graph::EdgeList &A, const float *X, int64_t Lo,
                      int64_t Hi, core::FloatSink Out,
                      ConflictCounter &MeanD1) {
  for (int64_t E = Lo; E < Hi; E += kLanes) {
    const int64_t Left = Hi - E;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec Row = IVec::maskLoad(IVec::zero(), Active, A.Src.data() + E);
    const IVec Col = IVec::maskLoad(IVec::zero(), Active, A.Dst.data() + E);
    const FVec V = FVec::maskLoad(FVec::zero(), Active, A.Weight.data() + E);
    const FVec Xc = FVec::maskGather(FVec::zero(), Active, X, Col);
    FVec Prod = V * Xc;
    const core::InvecResult R = core::invecReduce<simd::OpAdd>(Active, Row,
                                                               Prod);
    MeanD1.add(R.Distinct);
    Out.commit(R.Ret, Row, Prod);
  }
}

struct GroupedMatrix {
  AlignedVector<int32_t> Row, Col;
  AlignedVector<float> Val;
  AlignedVector<Mask16> GroupMask;
  int64_t NumGroups = 0;
};

GroupedMatrix groupMatrix(const graph::EdgeList &A, int BlockBits) {
  const inspector::TilingResult Tiling = inspector::tileByDestination(
      A.Src.data(), A.numEdges(), A.NumNodes, BlockBits);
  inspector::GroupingResult G =
      inspector::groupConflictFree(A.Src.data(), A.NumNodes, Tiling, kLanes);
  GroupedMatrix M;
  M.Row = inspector::applyGrouping(G, A.Src.data(), int32_t(0));
  M.Col = inspector::applyGrouping(G, A.Dst.data(), int32_t(0));
  M.Val = inspector::applyGrouping(G, A.Weight.data(), 0.0f);
  M.GroupMask = std::move(G.GroupMask);
  M.NumGroups = G.NumGroups;
  return M;
}

void multiplyGrouped(const GroupedMatrix &M, const float *X, int64_t GLo,
                     int64_t GHi, core::FloatSink Out) {
  for (int64_t G = GLo; G < GHi; ++G) {
    const Mask16 Msk = M.GroupMask[G];
    const IVec Row = IVec::load(M.Row.data() + G * kLanes);
    const IVec Col = IVec::load(M.Col.data() + G * kLanes);
    const FVec V = FVec::load(M.Val.data() + G * kLanes);
    const FVec Xc = FVec::maskGather(FVec::zero(), Msk, X, Col);
    // Rows distinct within a group: plain read-modify-write.
    Out.commit(Msk, Row, V * Xc);
  }
}

} // namespace

// Compiled once per backend variant; the public apps::runSpmv forwards
// here through core::dispatch().
SpmvResult apps::CFV_VARIANT_NS::runSpmv(const graph::EdgeList &A,
                                         const float *X, SpmvVersion V,
                                         int Repeats,
                                         const core::RunOptions &O) {
  assert(A.isWeighted() && "SpMV needs matrix values on the edge list");
  SpmvResult R;
  R.Y.assign(A.NumNodes, 0.0f);
  const int NumThreads = core::resolveThreads(O.Threads);
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);

  graph::Csr LocalCsr;
  const graph::Csr *CsrPtr = nullptr;
  GroupedMatrix M;
  if (V == SpmvVersion::CsrSerial) {
    WallTimer P;
    // Reuse a compatible precomputed CSR (PreparedGraph through the
    // cfv::run facade) instead of rebuilding it per run.
    if (O.SharedCsr && O.SharedCsr->NumNodes == A.NumNodes &&
        O.SharedCsr->numEdges() == A.numEdges()) {
      CsrPtr = O.SharedCsr;
    } else {
      LocalCsr = graph::buildCsr(A);
      CsrPtr = &LocalCsr;
    }
    R.PrepSeconds = P.seconds();
    obs::Tracer::instance().recordAt("spmv:csr_build", "inspector",
                                     monotonicSeconds() - R.PrepSeconds,
                                     R.PrepSeconds);
  } else if (V == SpmvVersion::CooGrouping) {
    WallTimer P;
    M = groupMatrix(A, /*BlockBits=*/16);
    R.PrepSeconds = P.seconds();
    obs::Tracer::instance().recordAt("spmv:group", "inspector",
                                     monotonicSeconds() - R.PrepSeconds,
                                     R.PrepSeconds);
  }

  // CSR needs no privatized replicas (rows are disjoint); the COO paths
  // accumulate by row index and privatize like every other app.
  const std::vector<int64_t> Bounds =
      V == SpmvVersion::CsrSerial ? core::chunkBounds(A.NumNodes, NumThreads, 1)
      : V == SpmvVersion::CooGrouping
          ? core::chunkBounds(M.NumGroups, NumThreads, 1)
          : core::chunkBounds(A.numEdges(), NumThreads, kLanes);
  const bool NeedsSink = V != SpmvVersion::CsrSerial;
  const bool Dense = NumThreads <= 1 ||
                     core::useDensePrivatization(A.NumNodes, sizeof(float),
                                                 A.numEdges(), NumThreads);
  const int Replicas = NeedsSink && NumThreads > 1 ? NumThreads - 1 : 0;
  std::vector<AlignedVector<float>> Parts(Dense ? Replicas : 0);
  for (auto &P : Parts)
    P.assign(A.NumNodes, 0.0f);
  std::vector<core::SpillListF> Spills(Dense ? 0 : Replicas);
  core::ParallelEngine &Engine = core::ParallelEngine::instance();

  const auto Body = [&](int Tid) {
    const int64_t Lo = Bounds[Tid], Hi = Bounds[Tid + 1];
    // CSR has no replicas (NeedsSink false): every row chunk writes Y.
    const core::FloatSink Out =
        Tid == 0 || !NeedsSink ? core::FloatSink::dense(R.Y.data())
        : Dense ? core::FloatSink::dense(Parts[Tid - 1].data())
                : core::FloatSink::spill(&Spills[Tid - 1]);
    switch (V) {
    case SpmvVersion::CooSerial:
      multiplyCooSerial(A, X, Lo, Hi, Out);
      break;
    case SpmvVersion::CsrSerial:
      multiplyCsrSerial(*CsrPtr, X, static_cast<int32_t>(Lo),
                        static_cast<int32_t>(Hi), R.Y.data());
      break;
    case SpmvVersion::CooMask:
      multiplyCooMask(A, X, Lo, Hi, Out, Utils[Tid]);
      break;
    case SpmvVersion::CooInvec:
      multiplyCooInvec(A, X, Lo, Hi, Out, D1s[Tid]);
      break;
    case SpmvVersion::CooGrouping:
      multiplyGrouped(M, X, Lo, Hi, Out);
      break;
    }
  };

  WallTimer W;
  for (int It = 0; It < Repeats; ++It) {
    Engine.run(NumThreads, Body);
    if (!NeedsSink)
      continue;
    if (Dense) {
      core::mergeTreeAdd(R.Y.data(), Parts, A.NumNodes);
    } else {
      for (auto &L : Spills) {
        core::applySpillAdd(L, R.Y.data());
        L.clear();
      }
    }
  }
  R.Seconds = W.seconds();
  SimdUtilCounter Util = Utils[0];
  ConflictCounter MeanD1 = D1s[0];
  for (int T = 1; T < NumThreads; ++T) {
    Util.merge(Utils[T]);
    MeanD1.merge(D1s[T]);
  }
  R.SimdUtil = Util.utilization();
  R.UtilHist = Util.laneHistogram();
  R.MeanD1 = MeanD1.count() ? MeanD1.mean() : 0.0;
  R.D1Hist = MeanD1.histogram();
  return R;
}

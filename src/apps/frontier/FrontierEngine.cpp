//===- apps/frontier/FrontierEngine.cpp - Wave-frontier algorithms -------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/frontier/FrontierEngine.h"

#include "core/InvecReduce.h"
#include "core/ParallelEngine.h"
#include "graph/Frontier.h"
#include "inspector/Grouping.h"
#include "inspector/Tiling.h"
#include "masking/ConflictMask.h"
#include "core/Backends.h"
#include "core/Variant.h"
#include "simd/Traits.h"
#include "obs/Trace.h"
#include "util/Stats.h"
#include "util/Timer.h"

#include <cassert>
#include <limits>

using namespace cfv;
using namespace cfv::apps;

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
using simd::Mask16;
constexpr int kLanes = B::kLanes;
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

#if CFV_VARIANT_PRIMARY
const char *apps::appName(FrApp A) {
  switch (A) {
  case FrApp::Sssp:
    return "SSSP";
  case FrApp::Sswp:
    return "SSWP";
  case FrApp::Wcc:
    return "WCC";
  case FrApp::Bfs:
    return "BFS";
  }
  return "unknown";
}

const char *apps::versionName(FrVersion V) {
  switch (V) {
  case FrVersion::NontilingSerial:
    return "nontiling_serial";
  case FrVersion::NontilingMask:
    return "nontiling_and_mask";
  case FrVersion::NontilingInvec:
    return "nontiling_and_invec";
  case FrVersion::TilingGrouping:
    return "tiling_and_grouping";
  }
  return "unknown";
}
#endif // CFV_VARIANT_PRIMARY

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// SSSP: dist(ny) = min(dist(ny), dist(nx) + w); start at Source = 0.
struct SsspPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = true;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return kInf; }
  static float sourceValue() { return 0.0f; }
  static float candidate(float Dx, float W) { return Dx + W; }
  static FVec candidate(FVec Dx, FVec W) { return Dx + W; }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// SSWP: width(ny) = max(width(ny), min(width(nx), w)); source = +inf.
struct SswpPolicy {
  using ReduceOp = simd::OpMax;
  static constexpr bool NeedsWeight = true;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return 0.0f; }
  static float sourceValue() { return kInf; }
  static float candidate(float Dx, float W) { return W < Dx ? W : Dx; }
  static FVec candidate(FVec Dx, FVec W) { return FVec::min(Dx, W); }
  static bool better(float C, float Cur) { return C > Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.gt(Cur); }
};

/// WCC by min-label propagation: label(ny) = min(label(ny), label(nx));
/// every vertex starts active with its own id as label.  Vertex ids are
/// stored as float, exact for graphs under 2^24 vertices.
struct WccPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = false;
  static constexpr bool AllVerticesStart = true;
  static float farValue(int32_t V) { return static_cast<float>(V); }
  static float sourceValue() { return 0.0f; } // unused
  static float candidate(float Dx, float) { return Dx; }
  static FVec candidate(FVec Dx, FVec) { return Dx; }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// BFS: level(ny) = min(level(ny), level(nx) + 1); hop counts as float.
struct BfsPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = false;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return kInf; }
  static float sourceValue() { return 0.0f; }
  static float candidate(float Dx, float) { return Dx + 1.0f; }
  static FVec candidate(FVec Dx, FVec) {
    return Dx + FVec::broadcast(1.0f);
  }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// Active edge buffers, rebuilt from the frontier every iteration (the
/// paper's n1/n2 arrays over active edges).  Reused to avoid per-iteration
/// allocation.
struct ActiveEdges {
  AlignedVector<int32_t> Src;
  AlignedVector<int32_t> Dst;
  AlignedVector<float> W;

  void clear() {
    Src.clear();
    Dst.clear();
    W.clear();
  }
  int64_t size() const { return static_cast<int64_t>(Src.size()); }
};

/// Gathers the outgoing edges of every frontier vertex.
void expand(const graph::Csr &Adj, const graph::Frontier &Cur,
            bool NeedsWeight, ActiveEdges &Out) {
  Out.clear();
  for (const int32_t V : Cur.vertices()) {
    for (int64_t E = Adj.RowBegin[V], End = Adj.RowBegin[V + 1]; E < End;
         ++E) {
      Out.Src.push_back(V);
      Out.Dst.push_back(Adj.Col[E]);
      if (NeedsWeight)
        Out.W.push_back(Adj.Weight[E]);
    }
  }
}

/// Everything one relaxation sweep needs.
struct SweepState {
  AlignedVector<float> &Val;    ///< stable values read via nx
  AlignedVector<float> &ValNew; ///< values being relaxed via ny
  graph::Frontier &Next;
};

template <typename Policy>
void sweepSerial(const ActiveEdges &A, SweepState S) {
  const int64_t M = A.size();
  for (int64_t J = 0; J < M; ++J) {
    const int32_t Nx = A.Src[J];
    const int32_t Ny = A.Dst[J];
    const float W = Policy::NeedsWeight ? A.W[J] : 0.0f;
    const float Cand = Policy::candidate(S.Val[Nx], W);
    if (Policy::better(Cand, S.ValNew[Ny])) {
      S.ValNew[Ny] = Cand;
      S.Next.add(Ny);
    }
  }
}

/// Appends the destinations of the lanes in \p M to the next frontier.
void addLanesToFrontier(Mask16 M, IVec Vny, graph::Frontier &Next) {
  alignas(64) int32_t Buf[kLanes];
  const int N = Vny.compressStore(M, Buf);
  for (int I = 0; I < N; ++I)
    Next.add(Buf[I]);
}

/// Conflict-masking sweep.  Every active edge performs the associative
/// update at its destination (relax-at-scatter, as the paper's
/// edge-centric mask versions do); a lane commits only when its
/// destination is conflict free in this pass, so the SIMD utilization is
/// dictated purely by the input's duplicate density.
template <typename Policy>
void sweepMask(const ActiveEdges &A, SweepState S, SimdUtilCounter &Util) {
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;

  auto LoadIdx = [&](IVec Pos, Mask16 Lanes) {
    return IVec::maskGather(IVec::zero(), Lanes, A.Dst.data(), Pos);
  };
  auto Commit = [&](Mask16 Safe, IVec Pos, IVec Idx) {
    const IVec Vnx = IVec::maskGather(IVec::zero(), Safe, A.Src.data(), Pos);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Safe, S.Val.data(), Vnx);
    const FVec Vw = WPtr ? FVec::maskGather(FVec::zero(), Safe, WPtr, Pos)
                         : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec Cur = FVec::maskGather(FVec::zero(), Safe, S.ValNew.data(),
                                      Idx);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & Safe);
    if (!Better)
      return;
    Cand.maskScatter(Better, S.ValNew.data(), Idx);
    addLanesToFrontier(Better, Idx, S.Next);
  };
  masking::maskedStreamLoop<B>(A.size(), LoadIdx,
                               masking::AllLanesNeedUpdate{}, Commit, &Util);
}

template <typename Policy>
void sweepInvec(const ActiveEdges &A, SweepState S, ConflictCounter &MeanD1) {
  using Op = typename Policy::ReduceOp;
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;
  const int64_t M = A.size();

  for (int64_t J = 0; J < M; J += kLanes) {
    const int64_t Left = M - J;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec Vnx = IVec::maskLoad(IVec::zero(), Active, A.Src.data() + J);
    const IVec Vny = IVec::maskLoad(IVec::zero(), Active, A.Dst.data() + J);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Active, S.Val.data(),
                                      Vnx);
    const FVec Vw = WPtr
                        ? FVec::maskLoad(FVec::zero(), Active, WPtr + J)
                        : FVec::zero();
    FVec Cand = Policy::candidate(Vdx, Vw);

    // In-vector reduction: duplicate destinations collapse to their first
    // lane, so the compare-and-scatter below is conflict free.
    const core::InvecResult R = core::invecReduce<Op>(Active, Vny, Cand);
    MeanD1.add(R.Distinct);

    const FVec Cur = FVec::maskGather(FVec::zero(), R.Ret, S.ValNew.data(),
                                      Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & R.Ret);
    if (!Better)
      continue;
    Cand.maskScatter(Better, S.ValNew.data(), Vny);
    addLanesToFrontier(Better, Vny, S.Next);
  }
}

/// The pre-grouped full edge list the tiling_and_grouping version reuses
/// across iterations.
struct GroupedEdgeSet {
  AlignedVector<int32_t> Src;
  AlignedVector<int32_t> Dst;
  AlignedVector<float> W;
  AlignedVector<Mask16> GroupMask;
  int64_t NumGroups = 0;
};

template <typename Policy>
void sweepGrouped(const GroupedEdgeSet &GE, const graph::Frontier &Cur,
                  SweepState S, int64_t &EdgesProcessed) {
  const int32_t *Flags = Cur.flags();
  for (int64_t G = 0; G < GE.NumGroups; ++G) {
    const Mask16 M = GE.GroupMask[G];
    const IVec Vnx = IVec::load(GE.Src.data() + G * kLanes);
    // Lanes whose source vertex is in the current frontier carry active
    // edges this iteration.
    const IVec InF = IVec::maskGather(IVec::zero(), M, Flags, Vnx);
    const Mask16 ActiveM = static_cast<Mask16>(InF.gt(IVec::zero()) & M);
    if (!ActiveM)
      continue;
    EdgesProcessed += simd::popcount(ActiveM);

    const IVec Vny = IVec::load(GE.Dst.data() + G * kLanes);
    const FVec Vdx = FVec::maskGather(FVec::zero(), ActiveM, S.Val.data(),
                                      Vnx);
    const FVec Vw = Policy::NeedsWeight
                        ? FVec::load(GE.W.data() + G * kLanes)
                        : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec CurV = FVec::maskGather(FVec::zero(), ActiveM,
                                       S.ValNew.data(), Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, CurV) & ActiveM);
    if (!Better)
      continue;
    // Destinations are pairwise distinct within a group: scatter directly.
    Cand.maskScatter(Better, S.ValNew.data(), Vny);
    addLanesToFrontier(Better, Vny, S.Next);
  }
}

//===----------------------------------------------------------------------===//
// Parallel candidate sweeps (threads > 1)
//
// Workers read Val/ValNew strictly read-only and emit (destination,
// candidate) pairs into per-worker spill lists, pre-filtered against the
// stable ValNew; the serial merge re-applies Policy::better in thread-id
// order.  min/max relaxations are exact, so the merged ValNew equals the
// serial sweep's at any thread count, and a vertex enters Next exactly
// when its final value improved -- the same membership the serial sweep
// produces.  Each chunk kernel mirrors its serial counterpart's
// instruction pattern (and utilization / D1 accounting).
//===----------------------------------------------------------------------===//

template <typename Policy>
void sweepSerialChunk(const ActiveEdges &A, const AlignedVector<float> &Val,
                      const AlignedVector<float> &ValNew, int64_t Lo,
                      int64_t Hi, core::SpillListF &Out) {
  for (int64_t J = Lo; J < Hi; ++J) {
    const int32_t Nx = A.Src[J];
    const int32_t Ny = A.Dst[J];
    const float W = Policy::NeedsWeight ? A.W[J] : 0.0f;
    const float Cand = Policy::candidate(Val[Nx], W);
    if (Policy::better(Cand, ValNew[Ny]))
      Out.push(Ny, Cand);
  }
}

template <typename Policy>
void sweepMaskChunk(const ActiveEdges &A, const AlignedVector<float> &Val,
                    const AlignedVector<float> &ValNew, int64_t Lo, int64_t Hi,
                    core::SpillListF &Out, SimdUtilCounter &Util) {
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;

  auto LoadIdx = [&](IVec Pos, Mask16 Lanes) {
    return IVec::maskGather(IVec::zero(), Lanes, A.Dst.data() + Lo, Pos);
  };
  auto Commit = [&](Mask16 Safe, IVec Pos, IVec Idx) {
    const IVec Vnx =
        IVec::maskGather(IVec::zero(), Safe, A.Src.data() + Lo, Pos);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Safe, Val.data(), Vnx);
    const FVec Vw = WPtr ? FVec::maskGather(FVec::zero(), Safe, WPtr + Lo, Pos)
                         : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec Cur = FVec::maskGather(FVec::zero(), Safe, ValNew.data(), Idx);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & Safe);
    if (!Better)
      return;
    Out.push(Better, Idx, Cand);
  };
  masking::maskedStreamLoop<B>(Hi - Lo, LoadIdx, masking::AllLanesNeedUpdate{},
                               Commit, &Util);
}

template <typename Policy>
void sweepInvecChunk(const ActiveEdges &A, const AlignedVector<float> &Val,
                     const AlignedVector<float> &ValNew, int64_t Lo,
                     int64_t Hi, core::SpillListF &Out,
                     ConflictCounter &MeanD1) {
  using Op = typename Policy::ReduceOp;
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;

  for (int64_t J = Lo; J < Hi; J += kLanes) {
    const int64_t Left = Hi - J;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec Vnx = IVec::maskLoad(IVec::zero(), Active, A.Src.data() + J);
    const IVec Vny = IVec::maskLoad(IVec::zero(), Active, A.Dst.data() + J);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Active, Val.data(), Vnx);
    const FVec Vw = WPtr ? FVec::maskLoad(FVec::zero(), Active, WPtr + J)
                         : FVec::zero();
    FVec Cand = Policy::candidate(Vdx, Vw);
    const core::InvecResult R = core::invecReduce<Op>(Active, Vny, Cand);
    MeanD1.add(R.Distinct);
    const FVec Cur = FVec::maskGather(FVec::zero(), R.Ret, ValNew.data(),
                                      Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & R.Ret);
    if (!Better)
      continue;
    Out.push(Better, Vny, Cand);
  }
}

template <typename Policy>
void sweepGroupedChunk(const GroupedEdgeSet &GE, const graph::Frontier &Cur,
                       const AlignedVector<float> &Val,
                       const AlignedVector<float> &ValNew, int64_t GLo,
                       int64_t GHi, core::SpillListF &Out,
                       int64_t &EdgesProcessed) {
  const int32_t *Flags = Cur.flags();
  for (int64_t G = GLo; G < GHi; ++G) {
    const Mask16 M = GE.GroupMask[G];
    const IVec Vnx = IVec::load(GE.Src.data() + G * kLanes);
    const IVec InF = IVec::maskGather(IVec::zero(), M, Flags, Vnx);
    const Mask16 ActiveM = static_cast<Mask16>(InF.gt(IVec::zero()) & M);
    if (!ActiveM)
      continue;
    EdgesProcessed += simd::popcount(ActiveM);

    const IVec Vny = IVec::load(GE.Dst.data() + G * kLanes);
    const FVec Vdx = FVec::maskGather(FVec::zero(), ActiveM, Val.data(),
                                      Vnx);
    const FVec Vw = Policy::NeedsWeight
                        ? FVec::load(GE.W.data() + G * kLanes)
                        : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec CurV = FVec::maskGather(FVec::zero(), ActiveM, ValNew.data(),
                                       Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, CurV) & ActiveM);
    if (!Better)
      continue;
    Out.push(Better, Vny, Cand);
  }
}

/// Applies the per-worker candidate lists in thread-id order.
template <typename Policy>
void mergeCandidates(std::vector<core::SpillListF> &Spills,
                     AlignedVector<float> &ValNew, graph::Frontier &Next) {
  for (core::SpillListF &L : Spills) {
    const int64_t K = L.size();
    for (int64_t I = 0; I < K; ++I) {
      const int32_t Ny = L.Idx[static_cast<size_t>(I)];
      const float Cand = L.Val[static_cast<size_t>(I)];
      if (Policy::better(Cand, ValNew[Ny])) {
        ValNew[Ny] = Cand;
        Next.add(Ny);
      }
    }
    L.clear();
  }
}

template <typename Policy>
FrontierResult runImpl(const graph::EdgeList &G, FrVersion V,
                       const FrontierOptions &O) {
  assert((!Policy::NeedsWeight || G.isWeighted()) &&
         "this application requires edge weights");
  FrontierResult R;
  const int32_t N = G.NumNodes;
  // Reuse a compatible precomputed adjacency (PreparedGraph through the
  // cfv::run facade) instead of rebuilding CSR on every run.
  const bool ShareCsr = O.SharedCsr && O.SharedCsr->NumNodes == N &&
                        O.SharedCsr->numEdges() == G.numEdges();
  graph::Csr LocalAdj;
  if (!ShareCsr)
    LocalAdj = graph::buildCsr(G);
  const graph::Csr &Adj = ShareCsr ? *O.SharedCsr : LocalAdj;

  AlignedVector<float> Val(N), ValNew(N);
  for (int32_t I = 0; I < N; ++I)
    Val[I] = Policy::farValue(I);
  graph::Frontier Cur(N), Next(N);
  if (Policy::AllVerticesStart) {
    for (int32_t I = 0; I < N; ++I)
      Cur.add(I);
  } else {
    assert(O.Source >= 0 && O.Source < N && "source out of range");
    Val[O.Source] = Policy::sourceValue();
    Cur.add(O.Source);
  }
  ValNew = Val;

  // One-time data reorganization for the inspector/executor version: tile
  // then group the full edge list; iterations reuse it via the frontier
  // flags (the ICS'16 reuse technique).
  GroupedEdgeSet GE;
  if (V == FrVersion::TilingGrouping) {
    WallTimer TT;
    const inspector::TilingResult *SharedTiling =
        O.SharedTiling && O.SharedTiling->BlockBits == O.TileBlockBits &&
                static_cast<int64_t>(O.SharedTiling->Order.size()) ==
                    G.numEdges()
            ? O.SharedTiling
            : nullptr;
    inspector::TilingResult LocalTiling;
    if (!SharedTiling)
      LocalTiling = inspector::tileByDestination(G.Dst.data(), G.numEdges(),
                                                 N, O.TileBlockBits);
    const inspector::TilingResult &Tiling =
        SharedTiling ? *SharedTiling : LocalTiling;
    R.TilingSeconds = TT.seconds();
    obs::Tracer::instance().recordAt("frontier:tile", "inspector",
                                     monotonicSeconds() - R.TilingSeconds,
                                     R.TilingSeconds);
    WallTimer TG;
    inspector::GroupingResult Grouping =
        inspector::groupConflictFree(G.Dst.data(), N, Tiling, kLanes);
    GE.Src = inspector::applyGrouping(Grouping, G.Src.data(), int32_t(0));
    GE.Dst = inspector::applyGrouping(Grouping, G.Dst.data(), int32_t(0));
    if (Policy::NeedsWeight)
      GE.W = inspector::applyGrouping(Grouping, G.Weight.data(), 0.0f);
    GE.GroupMask = std::move(Grouping.GroupMask);
    GE.NumGroups = Grouping.NumGroups;
    R.GroupingSeconds = TG.seconds();
    obs::Tracer::instance().recordAt(
        "frontier:group", "inspector",
        monotonicSeconds() - R.GroupingSeconds, R.GroupingSeconds);
  }

  ActiveEdges A;
  const int NumThreads = core::resolveThreads(O.Threads);
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);
  std::vector<core::SpillListF> Spills(NumThreads > 1 ? NumThreads : 0);
  std::vector<int64_t> GroupEdges(NumThreads, 0);
  const std::vector<int64_t> GroupBounds =
      V == FrVersion::TilingGrouping && NumThreads > 1
          ? core::chunkBounds(GE.NumGroups, NumThreads, 1)
          : std::vector<int64_t>();
  core::ParallelEngine &Engine = core::ParallelEngine::instance();

  WallTimer Compute;
  while (!Cur.empty() && R.Iterations < O.MaxIterations) {
    if (core::shouldStop(O)) {
      R.TimedOut = true;
      break;
    }
    if (NumThreads > 1) {
      // Parallel candidate sweep + deterministic merge.
      if (V == FrVersion::TilingGrouping) {
        Engine.run(NumThreads, [&](int Tid) {
          sweepGroupedChunk<Policy>(GE, Cur, Val, ValNew, GroupBounds[Tid],
                                    GroupBounds[Tid + 1], Spills[Tid],
                                    GroupEdges[Tid]);
        });
      } else {
        expand(Adj, Cur, Policy::NeedsWeight, A);
        R.EdgesProcessed += A.size();
        const std::vector<int64_t> Bounds =
            core::chunkBounds(A.size(), NumThreads, kLanes);
        Engine.run(NumThreads, [&](int Tid) {
          switch (V) {
          case FrVersion::NontilingSerial:
            sweepSerialChunk<Policy>(A, Val, ValNew, Bounds[Tid],
                                     Bounds[Tid + 1], Spills[Tid]);
            return;
          case FrVersion::NontilingMask:
            sweepMaskChunk<Policy>(A, Val, ValNew, Bounds[Tid],
                                   Bounds[Tid + 1], Spills[Tid], Utils[Tid]);
            return;
          case FrVersion::NontilingInvec:
            sweepInvecChunk<Policy>(A, Val, ValNew, Bounds[Tid],
                                    Bounds[Tid + 1], Spills[Tid], D1s[Tid]);
            return;
          case FrVersion::TilingGrouping:
            return; // handled above
          }
        });
      }
      mergeCandidates<Policy>(Spills, ValNew, Next);
    } else {
      SweepState S{Val, ValNew, Next};
      if (V == FrVersion::TilingGrouping) {
        sweepGrouped<Policy>(GE, Cur, S, R.EdgesProcessed);
      } else {
        expand(Adj, Cur, Policy::NeedsWeight, A);
        R.EdgesProcessed += A.size();
        switch (V) {
        case FrVersion::NontilingSerial:
          sweepSerial<Policy>(A, S);
          break;
        case FrVersion::NontilingMask:
          sweepMask<Policy>(A, S, Utils[0]);
          break;
        case FrVersion::NontilingInvec:
          sweepInvec<Policy>(A, S, D1s[0]);
          break;
        case FrVersion::TilingGrouping:
          break; // handled above
        }
      }
    }
    // Publish this iteration's relaxations and advance the wave.
    for (const int32_t W : Next.vertices())
      Val[W] = ValNew[W];
    ++R.Iterations;
    Cur.clear();
    Cur.swap(Next);
  }
  R.ComputeSeconds = Compute.seconds();
  for (const int64_t E : GroupEdges)
    R.EdgesProcessed += E;

  R.Value = std::move(Val);
  SimdUtilCounter Util;
  for (const SimdUtilCounter &U : Utils)
    Util.merge(U);
  ConflictCounter MeanD1;
  for (const ConflictCounter &D : D1s)
    MeanD1.merge(D);
  R.SimdUtil = Util.utilization();
  R.UtilHist = Util.laneHistogram();
  R.MeanD1 = MeanD1.count() ? MeanD1.mean() : 0.0;
  R.D1Hist = MeanD1.histogram();
  return R;
}

} // namespace

// Compiled once per backend variant; the public apps::runFrontier
// forwards here through core::dispatch().
FrontierResult apps::CFV_VARIANT_NS::runFrontier(const graph::EdgeList &G,
                                                 FrApp A, FrVersion V,
                                                 const FrontierOptions &O) {
  switch (A) {
  case FrApp::Sssp:
    return runImpl<SsspPolicy>(G, V, O);
  case FrApp::Sswp:
    return runImpl<SswpPolicy>(G, V, O);
  case FrApp::Wcc:
    return runImpl<WccPolicy>(G, V, O);
  case FrApp::Bfs:
    return runImpl<BfsPolicy>(G, V, O);
  }
  assert(false && "unknown frontier application");
  return {};
}

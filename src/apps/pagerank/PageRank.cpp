//===- apps/pagerank/PageRank.cpp - PageRank, five versions --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/pagerank/PageRank.h"

#include "core/Adaptive.h"
#include "core/Backends.h"
#include "core/ParallelEngine.h"
#include "core/Variant.h"
#include "inspector/Grouping.h"
#include "inspector/Tiling.h"
#include "masking/ConflictMask.h"
#include "obs/Trace.h"
#include "simd/Traits.h"
#include "util/Stats.h"
#include "util/Timer.h"

#include <algorithm>
#include <cmath>
#include <memory>
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
const char *apps::versionName(PrVersion V) {
  switch (V) {
  case PrVersion::NontilingSerial:
    return "nontiling_serial";
  case PrVersion::TilingSerial:
    return "tiling_serial";
  case PrVersion::TilingGrouping:
    return "tiling_and_grouping";
  case PrVersion::TilingMask:
    return "tiling_and_mask";
  case PrVersion::TilingInvec:
    return "tiling_and_invec";
  }
  return "unknown";
}
#endif // CFV_VARIANT_PRIMARY

namespace {

using PrReducer = core::AdaptiveReducer<simd::OpAdd, float, B>;

/// Mutable per-run state shared by all versions.  The edge-phase kernels
/// read Rank/DegF and write only through a FloatSink, so the state can be
/// shared read-only across parallel-engine workers.
struct PrState {
  int32_t N;
  int64_t M;
  AlignedVector<float> Rank; ///< current rank per vertex
  AlignedVector<float> Sum;  ///< irregular-reduction target
  AlignedVector<float> DegF; ///< out-degree as float (nneighbor)
};

PrState makeState(const graph::EdgeList &G) {
  PrState S;
  S.N = G.NumNodes;
  S.M = G.numEdges();
  S.Rank.assign(S.N, 1.0f / static_cast<float>(S.N));
  S.Sum.assign(S.N, 0.0f);
  S.DegF.resize(S.N);
  const AlignedVector<int32_t> Deg = graph::outDegrees(G);
  for (int32_t V = 0; V < S.N; ++V)
    S.DegF[V] = static_cast<float>(Deg[V]);
  return S;
}

/// The regular (vertex-indexed) phase: damp the accumulated sums into new
/// ranks, reset the sums, and return the L1 rank change.  Identical in
/// every version; the total rank mass stays near 1, so the L1 change
/// doubles as the relative change of the termination test.
float applyDampingAndReset(PrState &S, float Damping) {
  const float Base = (1.0f - Damping) / static_cast<float>(S.N);
  float Delta = 0.0f;
  for (int32_t V = 0; V < S.N; ++V) {
    const float NewRank = Base + Damping * S.Sum[V];
    Delta += std::fabs(NewRank - S.Rank[V]);
    S.Rank[V] = NewRank;
    S.Sum[V] = 0.0f;
  }
  return Delta;
}

/// Serial edge phase over [Lo, Hi): Figure 1's loop verbatim; a dense
/// sink makes Out.add exactly Sum[Ny] += Rank[Nx] / DegF[Nx].
void edgePhaseSerial(const PrState &S, const int32_t *Src, const int32_t *Dst,
                     int64_t Lo, int64_t Hi, core::FloatSink Out) {
  for (int64_t J = Lo; J < Hi; ++J) {
    const int32_t Nx = Src[J];
    const int32_t Ny = Dst[J];
    Out.add(Ny, S.Rank[Nx] / S.DegF[Nx]);
  }
}

/// Conflict-masking edge phase (Figure 3 applied to Figure 1) over
/// [Lo, Hi).  The dense Out.commit performs the same gather/add/scatter
/// the original hand-written commit did.
void edgePhaseMask(const PrState &S, const int32_t *Src, const int32_t *Dst,
                   int64_t Lo, int64_t Hi, core::FloatSink Out,
                   SimdUtilCounter &Util) {
  auto LoadIdx = [&](IVec Pos, Mask16 Lanes) {
    return IVec::maskGather(IVec::zero(), Lanes, Dst + Lo, Pos);
  };
  auto Commit = [&](Mask16 Safe, IVec Pos, IVec Idx) {
    const IVec Vnx = IVec::maskGather(IVec::zero(), Safe, Src + Lo, Pos);
    const FVec Vrank = FVec::maskGather(FVec::zero(), Safe, S.Rank.data(),
                                        Vnx);
    const FVec Vdeg = FVec::maskGather(FVec::broadcast(1.0f), Safe,
                                       S.DegF.data(), Vnx);
    const FVec Vadd = Vrank / Vdeg;
    Out.commit(Safe, Idx, Vadd);
  };
  masking::maskedStreamLoop<B>(Hi - Lo, LoadIdx, masking::AllLanesNeedUpdate{},
                               Commit, &Util);
}

/// In-vector reduction edge phase (Figure 7) over [Lo, Hi).  With a
/// \p Reducer (dense sinks only: Algorithm 2 scatters into the reducer's
/// auxiliary array, merged into the sink at the end) the §3.4 adaptive
/// policy applies; without one the kernel stays on Algorithm 1 and
/// records D1 into \p D1 -- the spill-sink configuration.
void edgePhaseInvec(const PrState &S, const int32_t *Src, const int32_t *Dst,
                    int64_t Lo, int64_t Hi, core::FloatSink Out,
                    PrReducer *Reducer, ConflictCounter *D1) {
  const int64_t Count = Hi - Lo;
  const int64_t Whole = Lo + (Count - Count % kLanes);
  for (int64_t J = Lo; J < Whole; J += kLanes) {
    const IVec Vnx = IVec::load(Src + J);
    const IVec Vny = IVec::load(Dst + J);
    const FVec Vrank = FVec::gather(S.Rank.data(), Vnx);
    const FVec Vdeg = FVec::gather(S.DegF.data(), Vnx);
    FVec Vadd = Vrank / Vdeg;
    Mask16 Mret;
    if (Reducer) {
      Mret = Reducer->reduce(kAllLanes, Vny, Vadd);
    } else {
      const core::InvecResult IR =
          core::invecReduce<simd::OpAdd>(kAllLanes, Vny, Vadd);
      D1->add(IR.Distinct);
      Mret = IR.Ret;
    }
    Out.commit(Mret, Vny, Vadd);
  }
  // Tail lanes, processed with a partial active mask.
  if (Whole != Hi) {
    const Mask16 Active =
        static_cast<Mask16>((1u << (Hi - Whole)) - 1u);
    const IVec Vnx = IVec::maskLoad(IVec::zero(), Active, Src + Whole);
    const IVec Vny = IVec::maskLoad(IVec::zero(), Active, Dst + Whole);
    const FVec Vrank = FVec::maskGather(FVec::zero(), Active, S.Rank.data(),
                                        Vnx);
    const FVec Vdeg = FVec::maskGather(FVec::broadcast(1.0f), Active,
                                       S.DegF.data(), Vnx);
    FVec Vadd = Vrank / Vdeg;
    Mask16 Mret;
    if (Reducer) {
      Mret = Reducer->reduce(Active, Vny, Vadd);
    } else {
      const core::InvecResult IR =
          core::invecReduce<simd::OpAdd>(Active, Vny, Vadd);
      D1->add(IR.Distinct);
      Mret = IR.Ret;
    }
    Out.commit(Mret, Vny, Vadd);
  }
  if (Reducer)
    Reducer->mergeInto(Out.densePtr());
}

/// Inspector/executor edge phase over pre-grouped, conflict-free lane
/// groups [GLo, GHi).  Destinations within a group are pairwise distinct,
/// so the dense commit cannot lose updates.
void edgePhaseGrouped(const PrState &S, const AlignedVector<int32_t> &GSrc,
                      const AlignedVector<int32_t> &GDst,
                      const AlignedVector<Mask16> &GroupMask, int64_t GLo,
                      int64_t GHi, core::FloatSink Out) {
  for (int64_t G = GLo; G < GHi; ++G) {
    const Mask16 M = GroupMask[G];
    const IVec Vnx = IVec::load(GSrc.data() + G * kLanes);
    const IVec Vny = IVec::load(GDst.data() + G * kLanes);
    const FVec Vrank = FVec::maskGather(FVec::zero(), M, S.Rank.data(), Vnx);
    const FVec Vdeg = FVec::maskGather(FVec::broadcast(1.0f), M,
                                       S.DegF.data(), Vnx);
    const FVec Vadd = Vrank / Vdeg;
    Out.commit(M, Vny, Vadd);
  }
}

} // namespace

// This translation unit is compiled once per backend variant; the public
// apps::runPageRank forwards here through core::dispatch().
PageRankResult apps::CFV_VARIANT_NS::runPageRank(const graph::EdgeList &G,
                                                 PrVersion V,
                                                 const PageRankOptions &O) {
  PageRankResult R;
  PrState S = makeState(G);

  // --- Inspector phases -------------------------------------------------
  AlignedVector<int32_t> TSrc, TDst;      // tiled edge order
  AlignedVector<int32_t> GSrc, GDst;      // grouped + padded edge order
  AlignedVector<Mask16> GroupMask;
  std::vector<int64_t> TileBounds;        // tile boundaries, for chunking
  const bool Tiled = V != PrVersion::NontilingSerial;

  if (Tiled) {
    WallTimer T;
    // Reuse a compatible precomputed schedule (PreparedGraph through the
    // cfv::run facade): the counting sort is skipped and only the cheap
    // permutation application remains in TilingSeconds.
    const inspector::TilingResult *Shared =
        O.SharedTiling && O.SharedTiling->BlockBits == O.TileBlockBits &&
                static_cast<int64_t>(O.SharedTiling->Order.size()) == S.M
            ? O.SharedTiling
            : nullptr;
    inspector::TilingResult Local;
    if (!Shared)
      Local = inspector::tileByDestination(G.Dst.data(), S.M, S.N,
                                           O.TileBlockBits);
    const inspector::TilingResult &Tiling = Shared ? *Shared : Local;
    TSrc = inspector::applyPermutation(Tiling.Order, G.Src.data());
    TDst = inspector::applyPermutation(Tiling.Order, G.Dst.data());
    TileBounds = Tiling.TileBegin;
    R.TilingSeconds = T.seconds();
    // Retroactive span from the same measurement the result reports, so
    // the trace and PageRankResult::TilingSeconds cannot disagree.
    obs::Tracer::instance().recordAt("pagerank:tile", "inspector",
                                     monotonicSeconds() - R.TilingSeconds,
                                     R.TilingSeconds);

    if (V == PrVersion::TilingGrouping) {
      WallTimer TG;
      inspector::GroupingResult Grouping =
          inspector::groupConflictFree(G.Dst.data(), S.N, Tiling, kLanes);
      // Padded lanes use vertex 0, which is always a valid gather target;
      // they are masked out of every store.
      GSrc = inspector::applyGrouping(Grouping, G.Src.data(), int32_t(0));
      GDst = inspector::applyGrouping(Grouping, G.Dst.data(), int32_t(0));
      GroupMask = std::move(Grouping.GroupMask);
      R.GroupingSeconds = TG.seconds();
      obs::Tracer::instance().recordAt(
          "pagerank:group", "inspector",
          monotonicSeconds() - R.GroupingSeconds, R.GroupingSeconds);
    }
  }

  const int32_t *Src = Tiled ? TSrc.data() : G.Src.data();
  const int32_t *Dst = Tiled ? TDst.data() : G.Dst.data();

  // --- Executor ----------------------------------------------------------
  const int NumThreads = core::resolveThreads(O.Threads);
  const bool IsGrouped = V == PrVersion::TilingGrouping;
  const int64_t NumGroups = static_cast<int64_t>(GroupMask.size());

  // Static chunk assignment: tile-aligned where the inspector tiled the
  // edges (a cache-sized tile never splits across workers), SIMD-block
  // aligned otherwise; groups chunk by group index.  With one thread the
  // single chunk is the full range and everything below reduces to the
  // serial path.
  const std::vector<int64_t> Bounds =
      IsGrouped ? core::chunkBounds(NumGroups, NumThreads, 1)
      : (Tiled && !TileBounds.empty())
          ? core::chunkBoundsFromTiles(TileBounds, NumThreads)
          : core::chunkBounds(S.M, NumThreads, kLanes);

  // Privatization strategy for the Sum array (thread 0 always writes the
  // base directly; replicas/spill lists exist for workers 1..T-1 only).
  const bool Dense =
      NumThreads <= 1 ||
      core::useDensePrivatization(S.N, sizeof(float), S.M, NumThreads);
  std::vector<AlignedVector<float>> Parts;
  std::vector<core::SpillListF> Spills;
  if (NumThreads > 1) {
    if (Dense) {
      Parts.resize(NumThreads - 1);
      for (auto &P : Parts)
        P.assign(S.N, 0.0f);
    } else {
      Spills.resize(NumThreads - 1);
    }
  }

  // Per-worker instrumentation and adaptive reducers.  The reducers (and
  // their Algorithm 2 auxiliary arrays) persist across iterations like
  // the single-core version's; the spill configuration runs Algorithm 1
  // only (its auxiliary merge needs a dense target).
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);
  std::vector<AlignedVector<float>> AuxParts;
  std::vector<std::unique_ptr<PrReducer>> Reducers;
  if (V == PrVersion::TilingInvec && Dense) {
    AuxParts.resize(NumThreads);
    Reducers.resize(NumThreads);
    for (int T = 0; T < NumThreads; ++T) {
      AuxParts[T].assign(S.N, 0.0f);
      Reducers[T] = std::make_unique<PrReducer>(AuxParts[T].data(),
                                                AuxParts[T].size());
    }
  }

  core::ParallelEngine &Engine = core::ParallelEngine::instance();
  const auto EdgeBody = [&](int Tid) {
    const int64_t Lo = Bounds[Tid];
    const int64_t Hi = Bounds[Tid + 1];
    const core::FloatSink Out =
        Tid == 0 ? core::FloatSink::dense(S.Sum.data())
        : Dense  ? core::FloatSink::dense(Parts[Tid - 1].data())
                 : core::FloatSink::spill(&Spills[Tid - 1]);
    switch (V) {
    case PrVersion::NontilingSerial:
    case PrVersion::TilingSerial:
      edgePhaseSerial(S, Src, Dst, Lo, Hi, Out);
      return;
    case PrVersion::TilingGrouping:
      edgePhaseGrouped(S, GSrc, GDst, GroupMask, Lo, Hi, Out);
      return;
    case PrVersion::TilingMask:
      edgePhaseMask(S, Src, Dst, Lo, Hi, Out, Utils[Tid]);
      return;
    case PrVersion::TilingInvec:
      edgePhaseInvec(S, Src, Dst, Lo, Hi, Out,
                     Reducers.empty() ? nullptr : Reducers[Tid].get(),
                     &D1s[Tid]);
      return;
    }
  };

  WallTimer Compute;
  for (int Iter = 0; Iter < O.MaxIterations; ++Iter) {
    if (core::shouldStop(O)) {
      R.TimedOut = true;
      break;
    }
    Engine.run(NumThreads, EdgeBody);
    if (Dense) {
      core::mergeTreeAdd(S.Sum.data(), Parts, S.N);
    } else {
      for (auto &L : Spills) {
        core::applySpillAdd(L, S.Sum.data());
        L.clear();
      }
    }
    const float Delta = applyDampingAndReset(S, O.Damping);
    ++R.Iterations;
    if (Delta < O.Tolerance)
      break;
  }
  R.ComputeSeconds = Compute.seconds();

  R.Rank = std::move(S.Rank);
  SimdUtilCounter Util;
  for (const SimdUtilCounter &U : Utils)
    Util.merge(U);
  R.SimdUtil = Util.utilization();
  R.UtilHist = Util.laneHistogram();
  if (!Reducers.empty()) {
    RunningMean MD;
    for (const auto &Rd : Reducers) {
      if (Rd->meanD1() > 0.0)
        MD.add(Rd->meanD1());
      R.UsedAlg2 = R.UsedAlg2 || Rd->usingAlg2();
      R.D1Hist.merge(Rd->d1Histogram());
    }
    R.MeanD1 = Reducers.size() == 1 ? Reducers[0]->meanD1() : MD.mean();
  } else if (V == PrVersion::TilingInvec) {
    ConflictCounter MD;
    for (const ConflictCounter &D : D1s)
      MD.merge(D);
    R.MeanD1 = MD.mean();
    R.D1Hist = MD.histogram();
  }
  return R;
}

//===- apps/moldyn/Moldyn.cpp - Molecular dynamics (Moldyn) --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/moldyn/Moldyn.h"

#include "core/Backends.h"
#include "core/Dispatch.h"
#include "core/InvecReduce.h"
#include "core/Variant.h"
#include "simd/Traits.h"
#include "inspector/Grouping.h"
#include "inspector/Tiling.h"
#include "obs/Trace.h"
#include "util/Prng.h"
#include "util/Timer.h"

#include <cassert>
#include <cmath>

using namespace cfv;
using namespace cfv::apps;

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
using simd::Mask16;
constexpr int kLanes = B::kLanes;
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

#if CFV_VARIANT_PRIMARY
const char *apps::versionName(MdVersion V) {
  switch (V) {
  case MdVersion::TilingSerial:
    return "tiling_serial";
  case MdVersion::TilingGrouping:
    return "tiling_and_grouping";
  case MdVersion::TilingMask:
    return "tiling_and_mask";
  case MdVersion::TilingInvec:
    return "tiling_and_invec";
  }
  return "unknown";
}

MoldynSim::MoldynSim(const MoldynOptions &O) : Opt(O) {
  const int Cells = O.Cells;
  N = 4 * Cells * Cells * Cells;
  const float A = std::cbrt(4.0f / O.Density); // FCC cell edge
  Box = A * static_cast<float>(Cells);
  assert((Box > 2.0f * O.Cutoff || N <= 4096) &&
         "box must exceed twice the cutoff for cell lists; small boxes "
         "fall back to all-pairs");

  X.resize(N);
  Y.resize(N);
  Z.resize(N);
  Vx.resize(N);
  Vy.resize(N);
  Vz.resize(N);
  Fx.assign(N, 0.0f);
  Fy.assign(N, 0.0f);
  Fz.assign(N, 0.0f);

  // Perturbed FCC lattice: 4 basis atoms per cell.
  static const float Basis[4][3] = {
      {0.0f, 0.0f, 0.0f}, {0.0f, 0.5f, 0.5f},
      {0.5f, 0.0f, 0.5f}, {0.5f, 0.5f, 0.0f}};
  Xoshiro256 Rng(O.Seed);
  int32_t P = 0;
  for (int Cx = 0; Cx < Cells; ++Cx)
    for (int Cy = 0; Cy < Cells; ++Cy)
      for (int Cz = 0; Cz < Cells; ++Cz)
        for (const auto &Bs : Basis) {
          const float Jitter = 0.05f * A;
          X[P] = (Cx + Bs[0]) * A + (Rng.nextFloat() - 0.5f) * Jitter;
          Y[P] = (Cy + Bs[1]) * A + (Rng.nextFloat() - 0.5f) * Jitter;
          Z[P] = (Cz + Bs[2]) * A + (Rng.nextFloat() - 0.5f) * Jitter;
          ++P;
        }

  // Random velocities with the net momentum removed.
  double Mx = 0, My = 0, Mz = 0;
  for (int32_t I = 0; I < N; ++I) {
    Vx[I] = Rng.nextFloat() - 0.5f;
    Vy[I] = Rng.nextFloat() - 0.5f;
    Vz[I] = Rng.nextFloat() - 0.5f;
    Mx += Vx[I];
    My += Vy[I];
    Mz += Vz[I];
  }
  for (int32_t I = 0; I < N; ++I) {
    Vx[I] -= static_cast<float>(Mx / N);
    Vy[I] -= static_cast<float>(My / N);
    Vz[I] -= static_cast<float>(Mz / N);
  }
}

namespace {

/// Minimal-image displacement component.
inline float minImage(float D, float Box) {
  return D - Box * std::nearbyintf(D / Box);
}

} // namespace

MoldynSim::RebuildTimes MoldynSim::rebuildNeighborList() {
  RebuildTimes Times{0.0, 0.0};
  WallTimer TN;
  PairI.clear();
  PairJ.clear();
  Grouped = false;

  // A small skin keeps the list valid across the rebuild interval.
  const float Rc = Opt.Cutoff * 1.05f;
  const float Rc2 = Rc * Rc;
  const int NCell = static_cast<int>(Box / Rc);

  if (NCell < 3) {
    // Box too small for a half stencil without image aliasing: all pairs.
    for (int32_t I = 0; I < N; ++I)
      for (int32_t J = I + 1; J < N; ++J) {
        const float Dx = minImage(X[I] - X[J], Box);
        const float Dy = minImage(Y[I] - Y[J], Box);
        const float Dz = minImage(Z[I] - Z[J], Box);
        if (Dx * Dx + Dy * Dy + Dz * Dz < Rc2) {
          PairI.push_back(I);
          PairJ.push_back(J);
        }
      }
  } else {
    const float CellLen = Box / static_cast<float>(NCell);
    const int64_t NumCells =
        static_cast<int64_t>(NCell) * NCell * NCell;
    std::vector<std::vector<int32_t>> Cells(NumCells);
    auto CellOf = [&](int32_t A) {
      int Cx = static_cast<int>(X[A] / CellLen) % NCell;
      int Cy = static_cast<int>(Y[A] / CellLen) % NCell;
      int Cz = static_cast<int>(Z[A] / CellLen) % NCell;
      if (Cx < 0)
        Cx += NCell;
      if (Cy < 0)
        Cy += NCell;
      if (Cz < 0)
        Cz += NCell;
      return (static_cast<int64_t>(Cx) * NCell + Cy) * NCell + Cz;
    };
    for (int32_t A = 0; A < N; ++A)
      Cells[CellOf(A)].push_back(A);

    // Half stencil: same cell (I < J) plus 13 forward neighbor cells.
    static const int Stencil[13][3] = {
        {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},   {1, -1, 0},
        {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1},  {1, 1, 1},
        {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
    auto TryPair = [&](int32_t I, int32_t J) {
      const float Dx = minImage(X[I] - X[J], Box);
      const float Dy = minImage(Y[I] - Y[J], Box);
      const float Dz = minImage(Z[I] - Z[J], Box);
      if (Dx * Dx + Dy * Dy + Dz * Dz < Rc2) {
        PairI.push_back(I < J ? I : J);
        PairJ.push_back(I < J ? J : I);
      }
    };
    for (int Cx = 0; Cx < NCell; ++Cx)
      for (int Cy = 0; Cy < NCell; ++Cy)
        for (int Cz = 0; Cz < NCell; ++Cz) {
          const auto &Home =
              Cells[(static_cast<int64_t>(Cx) * NCell + Cy) * NCell + Cz];
          for (std::size_t A = 0; A < Home.size(); ++A)
            for (std::size_t Bb = A + 1; Bb < Home.size(); ++Bb)
              TryPair(Home[A], Home[Bb]);
          for (const auto &St : Stencil) {
            const int Ox = (Cx + St[0] + NCell) % NCell;
            const int Oy = (Cy + St[1] + NCell) % NCell;
            const int Oz = (Cz + St[2] + NCell) % NCell;
            const auto &Other =
                Cells[(static_cast<int64_t>(Ox) * NCell + Oy) * NCell + Oz];
            for (const int32_t I : Home)
              for (const int32_t J : Other)
                TryPair(I, J);
          }
        }
  }
  Times.Neighbor = TN.seconds();

  // Tiling accompanies every rebuild (all versions, §4.3): bucket pairs
  // by the j-endpoint's block to localize the force-array updates.
  WallTimer TT;
  const inspector::TilingResult Tiling = inspector::tileByDestination(
      PairJ.data(), numPairs(), N, Opt.TileBlockBits);
  PairI = inspector::applyPermutation(Tiling.Order, PairI.data());
  PairJ = inspector::applyPermutation(Tiling.Order, PairJ.data());
  TileBegin = Tiling.TileBegin;
  Times.Tiling = TT.seconds();
  return Times;
}

double MoldynSim::regroupPairs(int Width) {
  WallTimer T;
  // The pair list is already tiled; group it as one tile per call site
  // (pair groups must keep both endpoints unique, so the packing is
  // looser than the single-index variant).  Groups are packed at the
  // lane width of the kernel set that will consume them -- this function
  // compiles once in the primary pass, whose file-scope kLanes is the
  // *baseline* backend's width, not necessarily the executing tier's.
  inspector::TilingResult Identity;
  Identity.BlockBits = 31;
  Identity.Order.resize(numPairs());
  for (int64_t E = 0; E < numPairs(); ++E)
    Identity.Order[E] = static_cast<int32_t>(E);
  Identity.TileBegin = {0, numPairs()};
  inspector::GroupingResult G = inspector::groupConflictFreePairs(
      PairI.data(), PairJ.data(), N, Identity, Width);
  GI = inspector::applyGrouping(G, PairI.data(), int32_t(0));
  GJ = inspector::applyGrouping(G, PairJ.data(), int32_t(0));
  GroupMask = std::move(G.GroupMask);
  NumGroups = G.NumGroups;
  GroupWidth = Width;
  Grouped = true;
  return T.seconds();
}

void MoldynSim::computeForcesSerialRange(int64_t Lo, int64_t Hi,
                                         core::FloatSink Ox,
                                         core::FloatSink Oy,
                                         core::FloatSink Oz,
                                         double &Pot) const {
  const float Rc2 = Opt.Cutoff * Opt.Cutoff;
  for (int64_t P = Lo; P < Hi; ++P) {
    const int32_t I = PairI[P];
    const int32_t J = PairJ[P];
    const float Dx = minImage(X[I] - X[J], Box);
    const float Dy = minImage(Y[I] - Y[J], Box);
    const float Dz = minImage(Z[I] - Z[J], Box);
    const float R2 = Dx * Dx + Dy * Dy + Dz * Dz;
    if (R2 >= Rc2)
      continue;
    const float R2i = 1.0f / R2;
    const float R6i = R2i * R2i * R2i;
    const float Ff = 48.0f * R6i * (R6i - 0.5f) * R2i;
    Ox.add(I, Ff * Dx);
    Oy.add(I, Ff * Dy);
    Oz.add(I, Ff * Dz);
    Ox.add(J, -(Ff * Dx));
    Oy.add(J, -(Ff * Dy));
    Oz.add(J, -(Ff * Dz));
    Pot += 4.0f * R6i * (R6i - 1.0f);
  }
}

void MoldynSim::computeForcesSerial() {
  computeForcesSerialRange(0, numPairs(), core::FloatSink::dense(Fx.data()),
                           core::FloatSink::dense(Fy.data()),
                           core::FloatSink::dense(Fz.data()), PotE);
}
#endif // CFV_VARIANT_PRIMARY

namespace {

/// Vector LJ kernel: given active lanes and pair endpoints, produces the
/// per-lane force components and the per-lane potential energy (zeroed
/// beyond the cutoff).
struct PairForces {
  FVec Fx, Fy, Fz, E;
};

PairForces ljForces(Mask16 Active, IVec VI, IVec VJ, const float *X,
                    const float *Y, const float *Z, float Box, float Rc2) {
  const FVec BoxV = FVec::broadcast(Box);
  const FVec InvBox = FVec::broadcast(1.0f / Box);
  auto MinImage = [&](FVec D) { return D - BoxV * (D * InvBox).round(); };

  const FVec Xi = FVec::maskGather(FVec::zero(), Active, X, VI);
  const FVec Yi = FVec::maskGather(FVec::zero(), Active, Y, VI);
  const FVec Zi = FVec::maskGather(FVec::zero(), Active, Z, VI);
  const FVec Xj = FVec::maskGather(FVec::zero(), Active, X, VJ);
  const FVec Yj = FVec::maskGather(FVec::zero(), Active, Y, VJ);
  const FVec Zj = FVec::maskGather(FVec::zero(), Active, Z, VJ);

  const FVec Dx = MinImage(Xi - Xj);
  const FVec Dy = MinImage(Yi - Yj);
  const FVec Dz = MinImage(Zi - Zj);
  const FVec R2 = Dx * Dx + Dy * Dy + Dz * Dz;

  // Lanes contributing force: active, inside the cutoff, and not
  // numerically coincident.  The reciprocal is guarded on all others.
  const Mask16 Cut = static_cast<Mask16>(
      R2.lt(FVec::broadcast(Rc2)) &
      R2.gt(FVec::broadcast(1e-12f)) & Active);
  const FVec R2i =
      FVec::broadcast(1.0f) / FVec::blend(Cut, FVec::broadcast(1.0f), R2);
  const FVec R6i = R2i * R2i * R2i;
  const FVec Ff = FVec::blend(Cut, FVec::zero(),
                              FVec::broadcast(48.0f) * R6i *
                                  (R6i - FVec::broadcast(0.5f)) * R2i);
  const FVec E = FVec::blend(Cut, FVec::zero(),
                             FVec::broadcast(4.0f) * R6i *
                                 (R6i - FVec::broadcast(1.0f)));
  return {Ff * Dx, Ff * Dy, Ff * Dz, E};
}

} // namespace

namespace cfv {
namespace apps {
namespace detail {
namespace CFV_VARIANT_NS {

/// This variant's force kernels, friended by MoldynSim so the vector
/// sweeps can touch the simulation state directly.  Each kernel covers a
/// pair-list (or group-list) chunk and routes its accumulations through
/// per-worker sinks; run() is the orchestrator that chunks the iteration
/// space, privatizes the force arrays, and merges.
struct MoldynKernels {
  static void run(MoldynSim &S, MdVersion V);
  static void mask(MoldynSim &S, int64_t Lo, int64_t Hi, core::FloatSink Ox,
                   core::FloatSink Oy, core::FloatSink Oz, double &Pot,
                   SimdUtilCounter &Util);
  static void invec(MoldynSim &S, int64_t Lo, int64_t Hi, core::FloatSink Ox,
                    core::FloatSink Oy, core::FloatSink Oz, double &Pot,
                    ConflictCounter &D1);
  static void grouped(MoldynSim &S, int64_t GLo, int64_t GHi,
                      core::FloatSink Ox, core::FloatSink Oy,
                      core::FloatSink Oz, double &Pot);
};

} // namespace CFV_VARIANT_NS
} // namespace detail
} // namespace apps
} // namespace cfv

using Kernels = apps::detail::CFV_VARIANT_NS::MoldynKernels;

void apps::detail::CFV_VARIANT_NS::MoldynKernels::mask(
    MoldynSim &S, int64_t Lo, int64_t Hi, core::FloatSink Ox,
    core::FloatSink Oy, core::FloatSink Oz, double &Pot,
    SimdUtilCounter &Util) {
  const float Rc2 = S.Opt.Cutoff * S.Opt.Cutoff;
  if (Lo >= Hi)
    return;

  IVec Pos = IVec::broadcast(static_cast<int32_t>(Lo)) + IVec::iota();
  int64_t Next = Lo + kLanes;
  const IVec Limit = IVec::broadcast(static_cast<int32_t>(Hi));
  Mask16 Active = Pos.lt(Limit);
  FVec PotV = FVec::zero();

  while (Active) {
    const IVec VI = IVec::maskGather(IVec::zero(), Active, S.PairI.data(), Pos);
    const IVec VJ = IVec::maskGather(IVec::zero(), Active, S.PairJ.data(), Pos);
    // A lane commits only if it is conflict free in *both* endpoint
    // vectors; the i-side and j-side updates are then done in two ordered
    // phases so cross conflicts (one lane's i == another's j) are safe.
    const Mask16 Safe = simd::conflictFreeSubset(
        simd::conflictFreeSubset(Active, VI), VJ);

    const PairForces F =
        ljForces(Safe, VI, VJ, S.X.data(), S.Y.data(), S.Z.data(), S.Box, Rc2);
    Ox.commit(Safe, VI, F.Fx);
    Oy.commit(Safe, VI, F.Fy);
    Oz.commit(Safe, VI, F.Fz);
    Ox.commit(Safe, VJ, FVec::zero() - F.Fx);
    Oy.commit(Safe, VJ, FVec::zero() - F.Fy);
    Oz.commit(Safe, VJ, FVec::zero() - F.Fz);
    PotV = PotV + F.E;

    Util.recordPass(simd::popcount(Safe), simd::popcount(Active));

    const int Refill = simd::popcount(Safe);
    IVec Fresh = IVec::broadcast(static_cast<int32_t>(Next)) + IVec::iota();
    Fresh = IVec::expand(Safe, Fresh);
    Pos = IVec::blend(Safe, Pos, Fresh);
    Next += Refill;
    Active = Pos.lt(Limit);
  }
  Pot += simd::maskedReduce<simd::OpAdd>(kAllLanes, PotV);
}

void apps::detail::CFV_VARIANT_NS::MoldynKernels::invec(
    MoldynSim &S, int64_t Lo, int64_t Hi, core::FloatSink Ox,
    core::FloatSink Oy, core::FloatSink Oz, double &Pot,
    ConflictCounter &D1) {
  const float Rc2 = S.Opt.Cutoff * S.Opt.Cutoff;
  FVec PotV = FVec::zero();

  for (int64_t P = Lo; P < Hi; P += kLanes) {
    const int64_t Left = Hi - P;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec VI = IVec::maskLoad(IVec::zero(), Active, S.PairI.data() + P);
    const IVec VJ = IVec::maskLoad(IVec::zero(), Active, S.PairJ.data() + P);
    const PairForces F =
        ljForces(Active, VI, VJ, S.X.data(), S.Y.data(), S.Z.data(), S.Box, Rc2);

    // In-vector reduce the +F contributions by i, then the -F
    // contributions by j; the reductions work on copies because each
    // keying collapses lanes differently.
    FVec Ax = F.Fx, Ay = F.Fy, Az = F.Fz;
    const core::InvecResult Ri =
        core::invecReduce<simd::OpAdd>(Active, VI, Ax, Ay, Az);
    Ox.commit(Ri.Ret, VI, Ax);
    Oy.commit(Ri.Ret, VI, Ay);
    Oz.commit(Ri.Ret, VI, Az);

    FVec Bx = FVec::zero() - F.Fx, By = FVec::zero() - F.Fy,
         Bz = FVec::zero() - F.Fz;
    const core::InvecResult Rj =
        core::invecReduce<simd::OpAdd>(Active, VJ, Bx, By, Bz);
    Ox.commit(Rj.Ret, VJ, Bx);
    Oy.commit(Rj.Ret, VJ, By);
    Oz.commit(Rj.Ret, VJ, Bz);

    PotV = PotV + F.E;
    D1.add(static_cast<unsigned>(Ri.Distinct));
    D1.add(static_cast<unsigned>(Rj.Distinct));
  }
  Pot += simd::maskedReduce<simd::OpAdd>(kAllLanes, PotV);
}

void apps::detail::CFV_VARIANT_NS::MoldynKernels::grouped(
    MoldynSim &S, int64_t GLo, int64_t GHi, core::FloatSink Ox,
    core::FloatSink Oy, core::FloatSink Oz, double &Pot) {
  assert(S.Grouped && "regroupPairs() must run before the grouped kernel");
  assert(S.GroupWidth == kLanes &&
         "groups were packed for a different backend's lane width");
  const float Rc2 = S.Opt.Cutoff * S.Opt.Cutoff;
  FVec PotV = FVec::zero();

  for (int64_t G = GLo; G < GHi; ++G) {
    const Mask16 M = S.GroupMask[G];
    const IVec VI = IVec::load(S.GI.data() + G * kLanes);
    const IVec VJ = IVec::load(S.GJ.data() + G * kLanes);
    const PairForces F =
        ljForces(M, VI, VJ, S.X.data(), S.Y.data(), S.Z.data(), S.Box, Rc2);
    // Every atom appears at most once across both endpoint vectors of a
    // group: both sides scatter without conflict handling.
    Ox.commit(M, VI, F.Fx);
    Oy.commit(M, VI, F.Fy);
    Oz.commit(M, VI, F.Fz);
    Ox.commit(M, VJ, FVec::zero() - F.Fx);
    Oy.commit(M, VJ, FVec::zero() - F.Fy);
    Oz.commit(M, VJ, FVec::zero() - F.Fz);
    PotV = PotV + F.E;
  }
  Pot += simd::maskedReduce<simd::OpAdd>(kAllLanes, PotV);
}

/// Orchestrates one force evaluation: chunks the pair list (tile-aligned
/// where the inspector's tiling is available, so a cache tile is never
/// split across workers), privatizes Fx/Fy/Fz per the cost model, runs
/// this variant's kernels on the pool, and merges replicas / spill lists
/// and instrumentation in thread-id order.
void apps::detail::CFV_VARIANT_NS::MoldynKernels::run(MoldynSim &S,
                                                      MdVersion V) {
  const int64_t M = S.numPairs();
  const int NumThreads = core::resolveThreads(S.Opt.Threads);
  const bool UseGroups = V == MdVersion::TilingGrouping;

  std::vector<int64_t> Bounds;
  if (UseGroups)
    Bounds = core::chunkBounds(S.NumGroups, NumThreads, 1);
  else if (!S.TileBegin.empty())
    Bounds = core::chunkBoundsFromTiles(S.TileBegin, NumThreads);
  else
    Bounds = core::chunkBounds(M, NumThreads, kLanes);

  // Each pair updates two atoms across three component arrays; treat the
  // (Fx, Fy, Fz) triple as one privatized array of 3-float elements.
  const bool Dense =
      NumThreads <= 1 ||
      core::useDensePrivatization(S.N, 3 * sizeof(float), 2 * M, NumThreads);
  const int Replicas = NumThreads > 1 ? NumThreads - 1 : 0;
  std::vector<AlignedVector<float>> PartsX(Dense ? Replicas : 0),
      PartsY(Dense ? Replicas : 0), PartsZ(Dense ? Replicas : 0);
  for (int R = 0; R < Replicas && Dense; ++R) {
    PartsX[R].assign(S.N, 0.0f);
    PartsY[R].assign(S.N, 0.0f);
    PartsZ[R].assign(S.N, 0.0f);
  }
  std::vector<core::SpillListF> SpillX(Dense ? 0 : Replicas),
      SpillY(Dense ? 0 : Replicas), SpillZ(Dense ? 0 : Replicas);
  std::vector<double> Pots(NumThreads, 0.0);
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);

  const auto SinkFor = [&](int Tid, AlignedVector<float> &Base,
                           std::vector<AlignedVector<float>> &Parts,
                           std::vector<core::SpillListF> &Spills) {
    if (Tid == 0)
      return core::FloatSink::dense(Base.data());
    return Dense ? core::FloatSink::dense(Parts[Tid - 1].data())
                 : core::FloatSink::spill(&Spills[Tid - 1]);
  };
  const auto Body = [&](int Tid) {
    const core::FloatSink Ox = SinkFor(Tid, S.Fx, PartsX, SpillX);
    const core::FloatSink Oy = SinkFor(Tid, S.Fy, PartsY, SpillY);
    const core::FloatSink Oz = SinkFor(Tid, S.Fz, PartsZ, SpillZ);
    const int64_t Lo = Bounds[Tid], Hi = Bounds[Tid + 1];
    switch (V) {
    case MdVersion::TilingSerial:
      S.computeForcesSerialRange(Lo, Hi, Ox, Oy, Oz, Pots[Tid]);
      return;
    case MdVersion::TilingGrouping:
      grouped(S, Lo, Hi, Ox, Oy, Oz, Pots[Tid]);
      return;
    case MdVersion::TilingMask:
      mask(S, Lo, Hi, Ox, Oy, Oz, Pots[Tid], Utils[Tid]);
      return;
    case MdVersion::TilingInvec:
      invec(S, Lo, Hi, Ox, Oy, Oz, Pots[Tid], D1s[Tid]);
      return;
    }
  };
  core::ParallelEngine::instance().run(NumThreads, Body);

  if (Dense) {
    core::mergeTreeAdd(S.Fx.data(), PartsX, S.N);
    core::mergeTreeAdd(S.Fy.data(), PartsY, S.N);
    core::mergeTreeAdd(S.Fz.data(), PartsZ, S.N);
  } else {
    for (int R = 0; R < Replicas; ++R) {
      core::applySpillAdd(SpillX[R], S.Fx.data());
      core::applySpillAdd(SpillY[R], S.Fy.data());
      core::applySpillAdd(SpillZ[R], S.Fz.data());
    }
  }
  for (int T = 0; T < NumThreads; ++T) {
    S.PotE += Pots[T];
    S.Util.merge(Utils[T]);
    S.D1.merge(D1s[T]);
  }
}

// Per-variant dispatch entry: the force kernels compiled in this TU.
void apps::CFV_VARIANT_NS::moldynForces(MoldynSim &S, MdVersion V) {
  Kernels::run(S, V);
}

#if CFV_VARIANT_PRIMARY
void MoldynSim::computeForces(MdVersion V) {
  std::fill(Fx.begin(), Fx.end(), 0.0f);
  std::fill(Fy.begin(), Fy.end(), 0.0f);
  std::fill(Fz.begin(), Fz.end(), 0.0f);
  PotE = 0.0;
  (ForceFn ? ForceFn : core::dispatch().MoldynForces)(*this, V);
}

void MoldynSim::step(MdVersion V) {
  const float Dt = Opt.TimeStep;
  const float Half = 0.5f * Dt;
  // Kick (with the forces of the current positions), then drift ...
  for (int32_t I = 0; I < N; ++I) {
    Vx[I] += Half * Fx[I];
    Vy[I] += Half * Fy[I];
    Vz[I] += Half * Fz[I];
    X[I] += Dt * Vx[I];
    Y[I] += Dt * Vy[I];
    Z[I] += Dt * Vz[I];
    X[I] -= Box * std::floor(X[I] / Box);
    Y[I] -= Box * std::floor(Y[I] / Box);
    Z[I] -= Box * std::floor(Z[I] / Box);
  }
  // ... then recompute forces and finish the kick.
  computeForces(V);
  for (int32_t I = 0; I < N; ++I) {
    Vx[I] += Half * Fx[I];
    Vy[I] += Half * Fy[I];
    Vz[I] += Half * Fz[I];
  }
}

double MoldynSim::kineticEnergy() const {
  double E = 0.0;
  for (int32_t I = 0; I < N; ++I)
    E += 0.5 * (static_cast<double>(Vx[I]) * Vx[I] +
                static_cast<double>(Vy[I]) * Vy[I] +
                static_cast<double>(Vz[I]) * Vz[I]);
  return E;
}

double MoldynSim::simdUtil() const { return Util.utilization(); }

double MoldynSim::meanD1() const { return D1.mean(); }

MoldynResult apps::runMoldyn(const MoldynOptions &O, MdVersion V,
                             int Iterations, MoldynForceFn ForceFn,
                             int ForceLanes) {
  MoldynSim Sim(O);
  Sim.setForceDispatch(ForceFn);
  // Groups must be packed at the width of the kernel set that consumes
  // them; an explicit ForceFn comes with its table's lane count.
  const int Width = ForceLanes > 0 ? ForceLanes : core::dispatch().Lanes;
  MoldynResult R;
  R.Atoms = Sim.numAtoms();

  const MoldynSim::RebuildTimes Rebuild = Sim.rebuildNeighborList();
  R.NeighborSeconds = Rebuild.Neighbor;
  R.TilingSeconds = Rebuild.Tiling;
  obs::Tracer::instance().recordAt(
      "moldyn:neighbor", "inspector",
      monotonicSeconds() - R.NeighborSeconds - R.TilingSeconds,
      R.NeighborSeconds);
  obs::Tracer::instance().recordAt("moldyn:tile", "inspector",
                                   monotonicSeconds() - R.TilingSeconds,
                                   R.TilingSeconds);
  if (V == MdVersion::TilingGrouping) {
    R.GroupingSeconds = Sim.regroupPairs(Width);
    obs::Tracer::instance().recordAt("moldyn:group", "inspector",
                                     monotonicSeconds() - R.GroupingSeconds,
                                     R.GroupingSeconds);
  }
  R.Pairs = Sim.numPairs();

  WallTimer Compute;
  Sim.computeForces(V); // initial forces for velocity Verlet
  for (int It = 0; It < Iterations; ++It)
    Sim.step(V);
  R.ComputeSeconds = Compute.seconds();

  R.SimdUtil = Sim.simdUtil();
  R.MeanD1 = Sim.meanD1();
  R.D1Hist = Sim.d1Histogram();
  R.UtilHist = Sim.utilHistogram();
  R.FinalKinetic = Sim.kineticEnergy();
  R.FinalPotential = Sim.potentialEnergy();
  return R;
}
#endif // CFV_VARIANT_PRIMARY

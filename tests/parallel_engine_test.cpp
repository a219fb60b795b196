//===- tests/parallel_engine_test.cpp - Multi-core execution engine --------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Engine unit tests (thread-count policy, chunking, pool, privatization,
// deterministic merge) plus application-level equivalence: every app at
// threads {1, 2, 7, 16} on both backends must match the single-core
// scalar reference within the dispatch-test tolerances, a fixed thread
// count must be run-to-run deterministic (bitwise), and threads=1 must
// be bit-identical to the default serial run.
//
//===----------------------------------------------------------------------===//

#include "core/Dispatch.h"
#include "core/ParallelEngine.h"
#include "graph/Generators.h"
#include "workload/KeyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace cfv;
using namespace cfv::apps;

namespace {

/// Scoped environment override restoring the prior value on destruction.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Saved = Old;
      HadOld = true;
    }
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
  }
  ~ScopedEnv() {
    if (HadOld)
      ::setenv(Name.c_str(), Saved.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }

private:
  std::string Name, Saved;
  bool HadOld = false;
};

const int kThreadCounts[] = {1, 2, 7, 16};

const core::BackendKind kBackends[] = {core::BackendKind::Scalar,
                                       core::BackendKind::Avx2,
                                       core::BackendKind::Avx512};

/// Relative-tolerance element comparison (the dispatch-test contract).
template <typename Vec>
void expectNearRel(const Vec &Got, const Vec &Want, double Tol,
                   const char *What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (std::size_t I = 0; I < Want.size(); ++I) {
    if (std::isinf(Want[I])) {
      ASSERT_EQ(Got[I], Want[I]) << What << " elem " << I;
      continue;
    }
    ASSERT_NEAR(Got[I], Want[I], Tol * (1.0 + std::abs(double(Want[I]))))
        << What << " elem " << I;
  }
}

/// Bitwise equality (determinism checks).
template <typename Vec>
void expectBitEqual(const Vec &A, const Vec &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  if (!A.empty()) {
    ASSERT_EQ(std::memcmp(A.data(), B.data(),
                          A.size() * sizeof(A[0])), 0)
        << What;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Thread-count policy
//===----------------------------------------------------------------------===//

TEST(ResolveThreads, ExplicitRequestWins) {
  ScopedEnv Env("CFV_THREADS", "5");
  EXPECT_EQ(core::resolveThreads(1), 1);
  EXPECT_EQ(core::resolveThreads(3), 3);
  EXPECT_EQ(core::resolveThreads(core::kMaxThreads + 100), core::kMaxThreads);
}

TEST(ResolveThreads, EnvFallback) {
  {
    ScopedEnv Env("CFV_THREADS", nullptr);
    EXPECT_EQ(core::resolveThreads(0), 1);
    EXPECT_EQ(core::resolveThreads(-2), 1);
  }
  {
    ScopedEnv Env("CFV_THREADS", "4");
    EXPECT_EQ(core::resolveThreads(0), 4);
  }
  {
    ScopedEnv Env("CFV_THREADS", "banana");
    EXPECT_EQ(core::resolveThreads(0), 1);
  }
  {
    ScopedEnv Env("CFV_THREADS", "0");
    EXPECT_EQ(core::resolveThreads(0), core::hardwareThreads());
  }
}

//===----------------------------------------------------------------------===//
// Iteration-space partitioning
//===----------------------------------------------------------------------===//

TEST(ChunkBounds, CoversAndAligns) {
  for (const int64_t N : {int64_t(0), int64_t(7), int64_t(16), int64_t(333),
                          int64_t(100000)}) {
    for (const int T : {1, 2, 7, 16}) {
      const std::vector<int64_t> B = core::chunkBounds(N, T, 16);
      ASSERT_EQ(static_cast<int>(B.size()), T + 1);
      EXPECT_EQ(B.front(), 0);
      EXPECT_EQ(B.back(), N);
      for (int I = 1; I <= T; ++I) {
        EXPECT_GE(B[I], B[I - 1]);
        // Interior boundaries are SIMD-block aligned so only the final
        // chunk carries a tail.
        if (I < T && B[I] < N) {
          EXPECT_EQ(B[I] % 16, 0) << "N=" << N << " T=" << T << " i=" << I;
        }
      }
    }
  }
}

TEST(ChunkBounds, SingleThreadIsWholeRange) {
  const std::vector<int64_t> B = core::chunkBounds(12345, 1, 16);
  ASSERT_EQ(B.size(), 2u);
  EXPECT_EQ(B[0], 0);
  EXPECT_EQ(B[1], 12345);
}

TEST(ChunkBoundsFromTiles, SnapsToTileBoundaries) {
  const std::vector<int64_t> TileBegin = {0, 100, 220, 300, 1000, 1500};
  for (const int T : {1, 2, 3, 7}) {
    const std::vector<int64_t> B = core::chunkBoundsFromTiles(TileBegin, T);
    ASSERT_EQ(static_cast<int>(B.size()), T + 1);
    EXPECT_EQ(B.front(), 0);
    EXPECT_EQ(B.back(), 1500);
    for (int I = 0; I <= T; ++I) {
      EXPECT_TRUE(std::find(TileBegin.begin(), TileBegin.end(), B[I]) !=
                  TileBegin.end())
          << "bound " << B[I] << " is not a tile boundary";
      if (I > 0) {
        EXPECT_GE(B[I], B[I - 1]);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

TEST(ParallelEnginePool, EveryThreadIdRunsOnce) {
  for (const int T : {1, 2, 7, 16}) {
    std::vector<std::atomic<int>> Hits(T);
    for (auto &H : Hits)
      H = 0;
    const std::thread::id Caller = std::this_thread::get_id();
    std::atomic<bool> Tid0OnCaller{false};
    core::ParallelEngine::instance().run(T, [&](int Tid) {
      ++Hits[Tid];
      if (Tid == 0 && std::this_thread::get_id() == Caller)
        Tid0OnCaller = true;
    });
    for (int I = 0; I < T; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "tid " << I << " at T=" << T;
    EXPECT_TRUE(Tid0OnCaller.load()) << "caller must participate as tid 0";
  }
}

TEST(ParallelEnginePool, NestedRunDegradesWithoutDeadlock) {
  std::atomic<int> Outer{0}, Inner{0};
  core::ParallelEngine::instance().run(4, [&](int) {
    ++Outer;
    core::ParallelEngine::instance().run(4, [&](int Tid) {
      // A nested run from a pool context executes only tid 0, serially.
      EXPECT_EQ(Tid, 0);
      ++Inner;
    });
  });
  EXPECT_EQ(Outer.load(), 4);
  EXPECT_EQ(Inner.load(), 4);
}

TEST(ParallelEnginePool, ManySmallRuns) {
  // Reuse stress: the pool must survive rapid successive jobs.
  std::atomic<int64_t> Sum{0};
  for (int I = 0; I < 200; ++I)
    core::ParallelEngine::instance().run(3, [&](int Tid) { Sum += Tid; });
  EXPECT_EQ(Sum.load(), 200 * (0 + 1 + 2));
}

//===----------------------------------------------------------------------===//
// Privatized accumulators and merges
//===----------------------------------------------------------------------===//

TEST(MergeTreeAdd, MatchesSerialSumAndResets) {
  const int64_t N = 5000;
  for (const int Replicas : {0, 1, 2, 3, 7, 15}) {
    AlignedVector<double> Base(N);
    std::vector<AlignedVector<double>> Parts(Replicas);
    AlignedVector<double> Want(N);
    for (int64_t J = 0; J < N; ++J) {
      Base[J] = double(J) * 0.25;
      Want[J] = Base[J];
    }
    for (int P = 0; P < Replicas; ++P) {
      Parts[P].assign(N, 0.0);
      for (int64_t J = 0; J < N; ++J) {
        Parts[P][J] = double(P + 1) + double(J) * 1e-3;
        Want[J] += Parts[P][J];
      }
    }
    core::mergeTreeAdd(Base.data(), Parts, N);
    for (int64_t J = 0; J < N; J += 97)
      ASSERT_NEAR(Base[J], Want[J], 1e-9) << "replicas=" << Replicas;
    for (const auto &P : Parts)
      for (int64_t J = 0; J < N; J += 131)
        ASSERT_EQ(P[J], 0.0) << "replica not reset";
  }
}

TEST(MergeTreeAdd, FixedPairingIsDeterministic) {
  const int64_t N = 8192; // large enough to take the pool path
  auto RunOnce = [&] {
    AlignedVector<float> Base(N, 0.0f);
    std::vector<AlignedVector<float>> Parts(7);
    for (int P = 0; P < 7; ++P) {
      Parts[P].assign(N, 0.0f);
      for (int64_t J = 0; J < N; ++J)
        Parts[P][J] = 0.1f * float(P + 1) + 1e-3f * float(J % 100);
    }
    core::mergeTreeAdd(Base.data(), Parts, N);
    return Base;
  };
  const AlignedVector<float> A = RunOnce();
  const AlignedVector<float> B = RunOnce();
  expectBitEqual(A, B, "mergeTreeAdd");
}

TEST(SpillList, AppendOrderFold) {
  core::SpillListF L;
  L.push(3, 1.0f);
  L.push(3, 2.0f);
  L.push(0, -1.5f);
  EXPECT_EQ(L.size(), 3);
  AlignedVector<float> Base(4, 10.0f);
  core::applySpillAdd(L, Base.data());
  EXPECT_FLOAT_EQ(Base[3], 13.0f);
  EXPECT_FLOAT_EQ(Base[0], 8.5f);
  L.clear();
  EXPECT_EQ(L.size(), 0);
}

TEST(SpillList, VectorPushCompresses) {
  core::SpillListF L;
  using IVec = simd::VecI32<simd::NativeBackend>;
  using FVec = simd::VecF32<simd::NativeBackend>;
  alignas(64) int32_t Idx[simd::kMaxLanes];
  alignas(64) float Val[simd::kMaxLanes];
  for (int I = 0; I < simd::kMaxLanes; ++I) {
    Idx[I] = I;
    Val[I] = float(I);
  }
  const simd::Mask16 M = 0b101;
  L.push(M, IVec::load(Idx), FVec::load(Val));
  ASSERT_EQ(L.size(), 2);
  EXPECT_EQ(L.Idx[0], 0);
  EXPECT_EQ(L.Idx[1], 2);
  EXPECT_FLOAT_EQ(L.Val[1], 2.0f);
}

TEST(UseDensePrivatization, ByteCapForcesSpill) {
  {
    ScopedEnv Env("CFV_PRIVATE_DENSE_MAX", "0");
    EXPECT_FALSE(core::useDensePrivatization(1024, 4, 1 << 20, 4));
  }
  {
    // Small array, heavy reuse: dense replication is the obvious win.
    ScopedEnv Env("CFV_PRIVATE_DENSE_MAX", nullptr);
    EXPECT_TRUE(core::useDensePrivatization(1024, 4, 1 << 20, 4));
  }
}

//===----------------------------------------------------------------------===//
// Application-level equivalence
//===----------------------------------------------------------------------===//

namespace {

core::RunOptions withThreads(int T) {
  core::RunOptions O;
  O.Threads = T;
  return O;
}

/// Shared inputs, built once.
struct Inputs {
  graph::EdgeList Pr = graph::genRmat(10, 6000, 42);
  graph::EdgeList Wg = graph::genRmat(10, 8000, 7, /*MaxWeight=*/16.0f);
  AlignedVector<int32_t> Keys =
      workload::genKeys(workload::KeyDist::Zipf, 50000, 512, 11);
  AlignedVector<float> Vals = workload::genValues(50000, 12);
  Mesh M = makeTriangulatedGrid(16, 16, 5);
  AlignedVector<float> U0;
  AlignedVector<float> X;
  Inputs() {
    U0.assign(M.NumCells, 0.0f);
    U0[0] = 100.0f;
    X.assign(Wg.NumNodes, 1.0f);
  }
  static const Inputs &get() {
    static Inputs I;
    return I;
  }
};

} // namespace

TEST(ParallelApps, PageRankMatchesScalarReference) {
  const Inputs &In = Inputs::get();
  PageRankOptions Ref;
  Ref.MaxIterations = 5;
  Ref.Tolerance = 0.0f;
  Ref.Threads = 1;
  const PageRankResult Want = core::dispatchFor(core::BackendKind::Scalar)
                                  .PageRank(In.Pr, PrVersion::TilingInvec, Ref);
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      PageRankOptions O = Ref;
      O.Threads = T;
      const PageRankResult Got =
          core::dispatchFor(K).PageRank(In.Pr, PrVersion::TilingInvec, O);
      EXPECT_EQ(Got.Iterations, Want.Iterations);
      expectNearRel(Got.Rank, Want.Rank, 2e-4, "pagerank");
    }
  }
}

TEST(ParallelApps, PageRankThreads1BitIdenticalToDefault) {
  const Inputs &In = Inputs::get();
  ScopedEnv Env("CFV_THREADS", nullptr);
  PageRankOptions O;
  O.MaxIterations = 5;
  O.Tolerance = 0.0f;
  O.Threads = 0; // default serial path
  const PageRankResult A =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(In.Pr, PrVersion::TilingInvec, O);
  O.Threads = 1; // explicit single-thread engine path
  const PageRankResult B =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(In.Pr, PrVersion::TilingInvec, O);
  expectBitEqual(A.Rank, B.Rank, "pagerank T=1 vs default");
}

TEST(ParallelApps, PageRank64MatchesScalarReference) {
  const Inputs &In = Inputs::get();
  PageRankOptions Ref;
  Ref.MaxIterations = 5;
  Ref.Tolerance = 0.0f;
  Ref.Threads = 1;
  const PageRank64Result Want =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank64(In.Pr, Pr64Version::Invec, Ref);
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      PageRankOptions O = Ref;
      O.Threads = T;
      const PageRank64Result Got =
          core::dispatchFor(K).PageRank64(In.Pr, Pr64Version::Invec, O);
      expectNearRel(Got.Rank, Want.Rank, 1e-9, "pagerank64");
    }
  }
}

TEST(ParallelApps, FrontierAppsMatchScalarReference) {
  const Inputs &In = Inputs::get();
  // Min/max reductions are exact regardless of merge order, so every
  // thread count must reproduce the reference values exactly.
  for (const FrApp App : {FrApp::Sssp, FrApp::Sswp, FrApp::Wcc, FrApp::Bfs}) {
    FrontierOptions Ref;
    Ref.Threads = 1;
    const FrontierResult Want =
        core::dispatchFor(core::BackendKind::Scalar)
            .Frontier(In.Wg, App, FrVersion::NontilingInvec, Ref);
    for (const core::BackendKind K : kBackends) {
      for (const int T : kThreadCounts) {
        FrontierOptions O = Ref;
        O.Threads = T;
        const FrontierResult Got = core::dispatchFor(K).Frontier(
            In.Wg, App, FrVersion::NontilingInvec, O);
        ASSERT_EQ(Got.Value.size(), Want.Value.size());
        for (std::size_t I = 0; I < Want.Value.size(); ++I)
          ASSERT_EQ(Got.Value[I], Want.Value[I])
              << appName(App) << " T=" << T << " vertex " << I;
      }
    }
  }
}

TEST(ParallelApps, MoldynMatchesScalarReference) {
  MoldynOptions Ref;
  Ref.Cells = 4;
  Ref.Threads = 1;
  const MoldynResult Want =
      runMoldyn(Ref, MdVersion::TilingInvec, 2,
                core::dispatchFor(core::BackendKind::Scalar).MoldynForces);
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      MoldynOptions O = Ref;
      O.Threads = T;
      const MoldynResult Got = runMoldyn(
          O, MdVersion::TilingInvec, 2, core::dispatchFor(K).MoldynForces);
      EXPECT_EQ(Got.Atoms, Want.Atoms);
      EXPECT_EQ(Got.Pairs, Want.Pairs);
      EXPECT_NEAR(Got.FinalKinetic, Want.FinalKinetic,
                  1e-3 * (1.0 + std::abs(Want.FinalKinetic)))
          << "T=" << T;
      EXPECT_NEAR(Got.FinalPotential, Want.FinalPotential,
                  1e-3 * (1.0 + std::abs(Want.FinalPotential)))
          << "T=" << T;
    }
  }
}

TEST(ParallelApps, AggregationMatchesScalarReference) {
  const Inputs &In = Inputs::get();
  const AggResult Want =
      core::dispatchFor(core::BackendKind::Scalar)
          .Aggregation(In.Keys.data(), In.Vals.data(), 50000, 512,
                       AggVersion::LinearInvec, withThreads(1));
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      const AggResult Got = core::dispatchFor(K).Aggregation(
          In.Keys.data(), In.Vals.data(), 50000, 512, AggVersion::LinearInvec,
          withThreads(T));
      ASSERT_EQ(Got.Groups.size(), Want.Groups.size()) << "T=" << T;
      for (std::size_t I = 0; I < Want.Groups.size(); ++I) {
        ASSERT_EQ(Got.Groups[I].Key, Want.Groups[I].Key);
        ASSERT_EQ(Got.Groups[I].Cnt, Want.Groups[I].Cnt);
        ASSERT_NEAR(Got.Groups[I].Sum, Want.Groups[I].Sum,
                    1e-4f * (1.0f + std::abs(Want.Groups[I].Sum)));
      }
    }
  }
}

TEST(ParallelApps, ReduceByKeyMatchesScalarReference) {
  const Inputs &In = Inputs::get();
  const RbkResult Want = core::dispatchFor(core::BackendKind::Scalar)
                             .RbkComparison(In.Wg, 2, withThreads(1));
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      const RbkResult Got =
          core::dispatchFor(K).RbkComparison(In.Wg, 2, withThreads(T));
      EXPECT_NEAR(Got.InvecChecksum, Want.InvecChecksum,
                  1e-4 * (1.0 + std::abs(Want.InvecChecksum)))
          << "T=" << T;
      EXPECT_NEAR(Got.InvecChecksum, Got.FusedSerialChecksum,
                  1e-4 * (1.0 + std::abs(Got.FusedSerialChecksum)))
          << "T=" << T;
    }
  }
}

TEST(ParallelApps, SpmvMatchesScalarReference) {
  const Inputs &In = Inputs::get();
  for (const SpmvVersion V :
       {SpmvVersion::CooInvec, SpmvVersion::CsrSerial, SpmvVersion::CooMask}) {
    const SpmvResult Want =
        core::dispatchFor(core::BackendKind::Scalar)
            .Spmv(In.Wg, In.X.data(), V, 1, withThreads(1));
    for (const core::BackendKind K : kBackends) {
      for (const int T : kThreadCounts) {
        const SpmvResult Got =
            core::dispatchFor(K).Spmv(In.Wg, In.X.data(), V, 1,
                                      withThreads(T));
        expectNearRel(Got.Y, Want.Y, 1e-4, versionName(V));
      }
    }
  }
}

TEST(ParallelApps, MeshMatchesScalarReference) {
  const Inputs &In = Inputs::get();
  const MeshRunResult Want =
      core::dispatchFor(core::BackendKind::Scalar)
          .MeshDiffusion(In.M, In.U0.data(), 10, 0.2f, MeshVersion::Invec,
                         withThreads(1));
  for (const core::BackendKind K : kBackends) {
    for (const int T : kThreadCounts) {
      const MeshRunResult Got = core::dispatchFor(K).MeshDiffusion(
          In.M, In.U0.data(), 10, 0.2f, MeshVersion::Invec, withThreads(T));
      expectNearRel(Got.U, Want.U, 1e-4, "mesh");
    }
  }
}

TEST(ParallelApps, FixedThreadCountIsDeterministic) {
  const Inputs &In = Inputs::get();
  // Static chunking + fixed merge pairing: two runs at the same thread
  // count must agree bit for bit, for every app with float output.
  const int T = 8;
  {
    PageRankOptions O;
    O.MaxIterations = 5;
    O.Tolerance = 0.0f;
    O.Threads = T;
    const auto &Tbl = core::dispatch();
    const PageRankResult A = Tbl.PageRank(In.Pr, PrVersion::TilingInvec, O);
    const PageRankResult B = Tbl.PageRank(In.Pr, PrVersion::TilingInvec, O);
    expectBitEqual(A.Rank, B.Rank, "pagerank T=8 determinism");
  }
  {
    const auto &Tbl = core::dispatch();
    const SpmvResult A =
        Tbl.Spmv(In.Wg, In.X.data(), SpmvVersion::CooInvec, 1, withThreads(T));
    const SpmvResult B =
        Tbl.Spmv(In.Wg, In.X.data(), SpmvVersion::CooInvec, 1, withThreads(T));
    expectBitEqual(A.Y, B.Y, "spmv T=8 determinism");
  }
  {
    const auto &Tbl = core::dispatch();
    const MeshRunResult A = Tbl.MeshDiffusion(
        In.M, In.U0.data(), 10, 0.2f, MeshVersion::Invec, withThreads(T));
    const MeshRunResult B = Tbl.MeshDiffusion(
        In.M, In.U0.data(), 10, 0.2f, MeshVersion::Invec, withThreads(T));
    expectBitEqual(A.U, B.U, "mesh T=8 determinism");
  }
  {
    MoldynOptions O;
    O.Cells = 4;
    O.Threads = T;
    const auto Forces = core::dispatch().MoldynForces;
    const MoldynResult A = runMoldyn(O, MdVersion::TilingInvec, 2, Forces);
    const MoldynResult B = runMoldyn(O, MdVersion::TilingInvec, 2, Forces);
    EXPECT_EQ(A.FinalKinetic, B.FinalKinetic);
    EXPECT_EQ(A.FinalPotential, B.FinalPotential);
  }
}

TEST(ParallelApps, ForcedSpillPathMatchesReference) {
  const Inputs &In = Inputs::get();
  // CFV_PRIVATE_DENSE_MAX=0 rejects every dense replica, forcing the
  // sparse spill lists; results must still match.
  const SpmvResult Want =
      core::dispatchFor(core::BackendKind::Scalar)
          .Spmv(In.Wg, In.X.data(), SpmvVersion::CooInvec, 1, withThreads(1));
  ScopedEnv Env("CFV_PRIVATE_DENSE_MAX", "0");
  for (const int T : {2, 7}) {
    const SpmvResult Got =
        core::dispatchFor(core::BackendKind::Scalar)
            .Spmv(In.Wg, In.X.data(), SpmvVersion::CooInvec, 1,
                  withThreads(T));
    expectNearRel(Got.Y, Want.Y, 1e-4, "spmv spill");
  }
  PageRankOptions O;
  O.MaxIterations = 5;
  O.Tolerance = 0.0f;
  O.Threads = 1;
  const PageRankResult PrWant =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(In.Pr, PrVersion::TilingInvec, O);
  O.Threads = 7;
  const PageRankResult PrGot =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(In.Pr, PrVersion::TilingInvec, O);
  expectNearRel(PrGot.Rank, PrWant.Rank, 2e-4, "pagerank spill");
}

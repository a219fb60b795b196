//===- tests/api_facade_test.cpp - Unified run API -------------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// cfv::run(AppRequest) facade: name parsing, happy path through every
// application, structured error reporting, and the no-global-mutation
// guarantee for per-request backend selection.
//
//===----------------------------------------------------------------------===//

#include "core/Api.h"
#include "graph/Generators.h"
#include "workload/KeyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace cfv;

namespace {

/// Small shared inputs, built once per process.
struct Fixtures {
  graph::EdgeList G = graph::genRmat(9, 4000, 42, /*MaxWeight=*/8.0f);
  graph::EdgeList Unweighted = graph::genRmat(9, 4000, 43);
  AlignedVector<int32_t> Keys =
      workload::genKeys(workload::KeyDist::Zipf, 20000, 256, 11);
  AlignedVector<float> Vals = workload::genValues(20000, 12);
  apps::Mesh M = apps::makeTriangulatedGrid(12, 12, 5);
  AlignedVector<float> U0;
  Fixtures() {
    U0.assign(M.NumCells, 0.0f);
    U0[0] = 50.0f;
  }
  static const Fixtures &get() {
    static Fixtures F;
    return F;
  }
};

AppRequest baseRequest(AppId App) {
  const Fixtures &F = Fixtures::get();
  AppRequest R;
  R.App = App;
  R.Graph = &F.G;
  R.Keys = F.Keys.data();
  R.Vals = F.Vals.data();
  R.Rows = 20000;
  R.Cardinality = 256;
  R.Moldyn.Cells = 4;
  R.MeshIn = &F.M;
  R.U0 = F.U0.data();
  R.Options.MaxIterations = 3;
  R.Options.Threads = 1; // deterministic regardless of CFV_THREADS
  return R;
}

void expectInvalid(const AppRequest &R, const char *What) {
  const Expected<AppResult> Res = run(R);
  ASSERT_FALSE(Res.ok()) << What;
  EXPECT_EQ(Res.status().code(), ErrorCode::InvalidArgument) << What;
  EXPECT_FALSE(Res.status().message().empty()) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Name parsing
//===----------------------------------------------------------------------===//

TEST(ParseAppId, KnownAndUnknown) {
  const struct {
    const char *Name;
    AppId Want;
  } Cases[] = {
      {"pagerank", AppId::PageRank}, {"pagerank64", AppId::PageRank64},
      {"sssp", AppId::Sssp},         {"sswp", AppId::Sswp},
      {"wcc", AppId::Wcc},           {"bfs", AppId::Bfs},
      {"moldyn", AppId::Moldyn},     {"agg", AppId::Agg},
      {"rbk", AppId::Rbk},           {"spmv", AppId::Spmv},
      {"mesh", AppId::Mesh},
  };
  for (const auto &C : Cases) {
    const Expected<AppId> Got = parseAppId(C.Name);
    ASSERT_TRUE(Got.ok()) << C.Name;
    EXPECT_EQ(*Got, C.Want);
    EXPECT_STREQ(appIdName(*Got), C.Name);
  }
  const Expected<AppId> Bad = parseAppId("warshall");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Bad.status().message().find("warshall"), std::string::npos);
}

TEST(ParseAppVersion, UnifiedAndHistoricalSpellings) {
  // The unified names.
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "default"), AppVersion::Default);
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "invec"), AppVersion::Invec);
  EXPECT_EQ(*parseAppVersion(AppId::Spmv, "csr_serial"),
            AppVersion::CsrSerial);
  EXPECT_EQ(*parseAppVersion(AppId::Agg, "bucket_invec"),
            AppVersion::BucketInvec);
  // Historical per-app spellings keep working.
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "tiling_and_invec"),
            AppVersion::Invec);
  EXPECT_EQ(*parseAppVersion(AppId::Sssp, "nontiling_and_mask"),
            AppVersion::Mask);
  EXPECT_EQ(*parseAppVersion(AppId::Agg, "linear_serial"),
            AppVersion::Serial);
  EXPECT_EQ(*parseAppVersion(AppId::Spmv, "coo_grouping"),
            AppVersion::Grouping);
}

TEST(ParseAppVersion, RejectsVersionForeignToApp) {
  // Valid spellings that the given app does not implement.
  const Expected<AppVersion> A = parseAppVersion(AppId::PageRank, "csr_serial");
  ASSERT_FALSE(A.ok());
  EXPECT_EQ(A.status().code(), ErrorCode::InvalidArgument);
  EXPECT_FALSE(parseAppVersion(AppId::Mesh, "bucket_invec").ok());
  EXPECT_FALSE(parseAppVersion(AppId::Rbk, "invec").ok());
  // Unknown spelling anywhere.
  EXPECT_FALSE(parseAppVersion(AppId::PageRank, "hyperspeed").ok());
}

//===----------------------------------------------------------------------===//
// Happy path through every application
//===----------------------------------------------------------------------===//

TEST(RunFacade, PageRank) {
  AppRequest R = baseRequest(AppId::PageRank);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->App, AppId::PageRank);
  EXPECT_EQ(Res->VersionName, "tiling_and_invec");
  EXPECT_EQ(Res->Threads, 1);
  EXPECT_EQ(Res->Iterations, 3);
  ASSERT_EQ(Res->Values.size(), static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  // Dangling vertices leak mass, so the total is only bounded by 1.
  double Mass = 0.0;
  for (const float V : Res->Values) {
    EXPECT_GT(V, 0.0f);
    Mass += V;
  }
  EXPECT_GT(Mass, 0.0);
  EXPECT_LT(Mass, 1.0 + 1e-3);
  EXPECT_GT(Res->EdgesProcessed, 0);
}

TEST(RunFacade, PageRank64) {
  AppRequest R = baseRequest(AppId::PageRank64);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->VersionName, "invec");
  ASSERT_EQ(Res->Values64.size(),
            static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  double Mass = 0.0;
  for (const double V : Res->Values64) {
    EXPECT_GT(V, 0.0);
    Mass += V;
  }
  EXPECT_GT(Mass, 0.0);
  EXPECT_LT(Mass, 1.0 + 1e-9);
}

TEST(RunFacade, FrontierApps) {
  for (const AppId App : {AppId::Sssp, AppId::Sswp, AppId::Wcc, AppId::Bfs}) {
    AppRequest R = baseRequest(App);
    R.Options.MaxIterations = 0; // app default (1000)
    R.Source = 1;
    const Expected<AppResult> Res = run(R);
    ASSERT_TRUE(Res.ok()) << Res.status().message();
    EXPECT_EQ(Res->VersionName, "nontiling_and_invec");
    ASSERT_EQ(Res->Values.size(),
              static_cast<std::size_t>(Fixtures::get().G.NumNodes));
    EXPECT_GT(Res->Iterations, 0);
  }
}

TEST(RunFacade, FacadeMatchesDirectCall) {
  // Same options through the facade and the classic entry point must
  // produce bit-identical output.
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Backend = core::BackendChoice::Scalar;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());

  apps::PageRankOptions O;
  O.MaxIterations = 3;
  O.Threads = 1;
  const apps::PageRankResult Direct =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(Fixtures::get().G, apps::PrVersion::TilingInvec, O);
  ASSERT_EQ(Res->Values.size(), Direct.Rank.size());
  for (std::size_t I = 0; I < Direct.Rank.size(); ++I)
    ASSERT_EQ(Res->Values[I], Direct.Rank[I]) << "vertex " << I;
}

TEST(RunFacade, Moldyn) {
  AppRequest R = baseRequest(AppId::Moldyn);
  R.Options.MaxIterations = 2;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_GT(Res->Moldyn.Atoms, 0);
  EXPECT_GT(Res->Moldyn.Pairs, 0);
  EXPECT_TRUE(std::isfinite(Res->Moldyn.FinalPotential));
}

TEST(RunFacade, Aggregation) {
  AppRequest R = baseRequest(AppId::Agg);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->VersionName, "linear_invec");
  ASSERT_FALSE(Res->Groups.empty());
  int64_t Cnt = 0;
  for (const auto &G : Res->Groups)
    Cnt += G.Cnt;
  EXPECT_EQ(Cnt, 20000);
}

TEST(RunFacade, ReduceByKey) {
  AppRequest R = baseRequest(AppId::Rbk);
  R.Options.MaxIterations = 2;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  // The three contenders in the comparison must agree on the answer.
  EXPECT_NEAR(Res->Rbk.InvecChecksum, Res->Rbk.FusedSerialChecksum,
              1e-4 * (1.0 + std::abs(Res->Rbk.FusedSerialChecksum)));
}

TEST(RunFacade, Spmv) {
  AppRequest R = baseRequest(AppId::Spmv);
  R.Options.MaxIterations = 1;
  const Expected<AppResult> Res = run(R); // null X -> vector of ones
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  ASSERT_EQ(Res->Values.size(),
            static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  double Norm = 0.0;
  for (const float V : Res->Values)
    Norm += double(V) * V;
  EXPECT_GT(Norm, 0.0);
}

TEST(RunFacade, Mesh) {
  AppRequest R = baseRequest(AppId::Mesh);
  R.Options.MaxIterations = 5;
  R.Dt = 0.2f;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  ASSERT_EQ(Res->Values.size(),
            static_cast<std::size_t>(Fixtures::get().M.NumCells));
  // Diffusion conserves the total.
  double Total = 0.0;
  for (const float V : Res->Values)
    Total += V;
  EXPECT_NEAR(Total, 50.0, 1e-2);
}

TEST(RunFacade, ThreadsAreResolvedAndReported) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Threads = 3;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Threads, 3);

  // Four workers against the serial run, per each app's contract: min
  // and label relaxations (SSSP, WCC, BFS) are exact under any merge
  // pairing, float-add accumulations (PageRank, SpMV) agree up to
  // reassociation.  A second four-worker run repeats bit for bit.
  const struct {
    AppId App;
    int MaxIterations;
    bool Exact;
  } Cases[] = {
      {AppId::PageRank, 3, false}, {AppId::Sssp, 0, true},
      {AppId::Wcc, 0, true},       {AppId::Bfs, 0, true},
      {AppId::Spmv, 1, false},
  };
  for (const auto &C : Cases) {
    AppRequest Q = baseRequest(C.App);
    Q.Options.MaxIterations = C.MaxIterations;
    const Expected<AppResult> Serial = run(Q);
    Q.Options.Threads = 4;
    const Expected<AppResult> A = run(Q);
    const Expected<AppResult> B = run(Q);
    ASSERT_TRUE(Serial.ok() && A.ok() && B.ok()) << appIdName(C.App);
    EXPECT_EQ(A->Threads, 4);
    ASSERT_FALSE(Serial->Values.empty()) << appIdName(C.App);
    ASSERT_EQ(A->Values.size(), Serial->Values.size()) << appIdName(C.App);
    ASSERT_EQ(B->Values.size(), A->Values.size()) << appIdName(C.App);
    for (std::size_t I = 0; I < A->Values.size(); ++I) {
      const float Got = A->Values[I], Want = Serial->Values[I];
      if (C.Exact || !std::isfinite(Want))
        ASSERT_EQ(Got, Want) << appIdName(C.App) << " slot " << I;
      else
        ASSERT_NEAR(Got, Want,
                    1e-4f *
                        std::max({1.0f, std::fabs(Got), std::fabs(Want)}))
            << appIdName(C.App) << " slot " << I;
      ASSERT_EQ(std::memcmp(&A->Values[I], &B->Values[I], sizeof(float)), 0)
          << appIdName(C.App) << " rerun slot " << I;
    }
  }
}

TEST(RunFacade, ExplicitBackendDoesNotMutateGlobalDispatch) {
  const core::BackendKind Before = core::dispatch().Kind;
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Backend = core::BackendChoice::Scalar;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Backend, core::BackendKind::Scalar);
  EXPECT_EQ(core::dispatch().Kind, Before);
}

//===----------------------------------------------------------------------===//
// Error reporting
//===----------------------------------------------------------------------===//

TEST(RunFacadeErrors, GraphValidation) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Graph = nullptr;
  expectInvalid(R, "null graph");

  R = baseRequest(AppId::Sssp);
  R.Graph = &Fixtures::get().Unweighted;
  expectInvalid(R, "sssp needs weights");

  R = baseRequest(AppId::Spmv);
  R.Graph = &Fixtures::get().Unweighted;
  expectInvalid(R, "spmv needs weights");

  R = baseRequest(AppId::Sssp);
  R.Source = -1;
  expectInvalid(R, "negative source");
  R.Source = Fixtures::get().G.NumNodes;
  expectInvalid(R, "source past last vertex");
}

TEST(RunFacadeErrors, VersionForeignToApp) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Version = AppVersion::CsrSerial;
  expectInvalid(R, "csr_serial for pagerank");

  R = baseRequest(AppId::Rbk);
  R.Version = AppVersion::Invec;
  expectInvalid(R, "rbk only runs the comparison");
}

TEST(RunFacadeErrors, NegativeThreads) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Threads = -1;
  expectInvalid(R, "negative threads");
}

TEST(RunFacadeErrors, AggregationInputs) {
  AppRequest R = baseRequest(AppId::Agg);
  R.Keys = nullptr;
  expectInvalid(R, "null keys");

  R = baseRequest(AppId::Agg);
  R.Vals = nullptr;
  expectInvalid(R, "null values");

  R = baseRequest(AppId::Agg);
  R.Rows = 0;
  expectInvalid(R, "zero rows");

  R = baseRequest(AppId::Agg);
  R.Cardinality = 0;
  expectInvalid(R, "zero cardinality");

  R = baseRequest(AppId::Agg);
  R.Cardinality = (int64_t(1) << 24) + 1;
  expectInvalid(R, "cardinality past cap");
}

TEST(RunFacadeErrors, MoldynAndMeshInputs) {
  AppRequest R = baseRequest(AppId::Moldyn);
  R.Moldyn.Cells = 0;
  expectInvalid(R, "zero cells");

  R = baseRequest(AppId::Mesh);
  R.MeshIn = nullptr;
  expectInvalid(R, "null mesh");

  R = baseRequest(AppId::Mesh);
  R.U0 = nullptr;
  expectInvalid(R, "null initial state");
}

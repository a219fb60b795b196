//===- tests/dispatch_test.cpp - Runtime backend dispatch ------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Selection-rule unit tests plus backend-equivalence checks: every
// dispatched application must produce the same answer through the scalar
// table as through each SIMD tier's table (AVX2 and AVX-512).  On a host
// without a tier the comparison degrades to scalar-vs-scalar and is
// trivially equal -- the graceful-fallback path itself is what's
// exercised then.
//
//===----------------------------------------------------------------------===//

#include "core/Dispatch.h"
#include "graph/Generators.h"
#include "util/Status.h"
#include "workload/KeyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>

using namespace cfv;
using namespace cfv::apps;

namespace {

/// The SIMD tiers every equivalence test compares against scalar.
constexpr core::BackendKind kSimdTiers[] = {core::BackendKind::Avx2,
                                            core::BackendKind::Avx512};

/// Restores automatic backend selection after each test.
class DispatchTest : public ::testing::Test {
protected:
  void TearDown() override { core::resetBackendForTest(); }

  template <typename Fn> auto onBackendPair(core::BackendKind K, Fn &&Run) {
    core::setBackend(core::BackendKind::Scalar);
    auto Scalar = Run();
    core::setBackend(K); // falls back if absent
    auto Simd = Run();
    core::resetBackendForTest();
    return std::make_pair(std::move(Scalar), std::move(Simd));
  }
};

} // namespace

TEST_F(DispatchTest, ParseBackendKind) {
  ASSERT_TRUE(core::parseBackendKind("scalar").ok());
  EXPECT_EQ(*core::parseBackendKind("scalar"), core::BackendKind::Scalar);
  ASSERT_TRUE(core::parseBackendKind("avx2").ok());
  EXPECT_EQ(*core::parseBackendKind("avx2"), core::BackendKind::Avx2);
  ASSERT_TRUE(core::parseBackendKind("avx512").ok());
  EXPECT_EQ(*core::parseBackendKind("avx512"), core::BackendKind::Avx512);
  const auto Bad = core::parseBackendKind("sse2");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Bad.status().message().find("sse2"), std::string::npos);
}

TEST_F(DispatchTest, ResolvePrecedence) {
  std::string Note;
  // Explicit env value wins regardless of availability.
  EXPECT_EQ(core::resolveBackendKind("scalar", true, true, &Note),
            core::BackendKind::Scalar);
  EXPECT_TRUE(Note.empty());
  EXPECT_EQ(core::resolveBackendKind("avx512", false, false, &Note),
            core::BackendKind::Avx512);
  EXPECT_EQ(core::resolveBackendKind("avx2", false, false, &Note),
            core::BackendKind::Avx2);
  // No value: best available (avx512 > avx2 > scalar).
  EXPECT_EQ(core::resolveBackendKind(nullptr, true, true, &Note),
            core::BackendKind::Avx512);
  EXPECT_EQ(core::resolveBackendKind(nullptr, false, true, &Note),
            core::BackendKind::Avx2);
  EXPECT_EQ(core::resolveBackendKind(nullptr, false, false, &Note),
            core::BackendKind::Scalar);
  EXPECT_EQ(core::resolveBackendKind("", true, true, &Note),
            core::BackendKind::Avx512);
  // Unparseable value: diagnostic note, automatic choice.
  EXPECT_EQ(core::resolveBackendKind("turbo", false, false, &Note),
            core::BackendKind::Scalar);
  EXPECT_NE(Note.find("turbo"), std::string::npos);
  EXPECT_EQ(core::resolveBackendKind("turbo", false, true, &Note),
            core::BackendKind::Avx2);
}

TEST_F(DispatchTest, TablesReportTheirKind) {
  const core::DispatchTable &S = core::dispatchFor(core::BackendKind::Scalar);
  EXPECT_EQ(S.Kind, core::BackendKind::Scalar);
  EXPECT_STREQ(S.Name, "scalar");

  const core::DispatchTable &B = core::dispatchFor(core::BackendKind::Avx512);
  if (core::avx512Available()) {
    EXPECT_EQ(B.Kind, core::BackendKind::Avx512);
    EXPECT_STREQ(B.Name, "avx512");
    EXPECT_EQ(core::avx512UnavailableReason(), nullptr);
  } else {
    // Graceful degradation: avx512 -> avx2 -> scalar, whichever runs.
    EXPECT_NE(B.Kind, core::BackendKind::Avx512);
    ASSERT_NE(core::avx512UnavailableReason(), nullptr);
  }

  const core::DispatchTable &A2 = core::dispatchFor(core::BackendKind::Avx2);
  if (core::avx2Available()) {
    EXPECT_EQ(A2.Kind, core::BackendKind::Avx2);
    EXPECT_STREQ(A2.Name, "avx2");
    EXPECT_EQ(core::avx2UnavailableReason(), nullptr);
  } else {
    EXPECT_EQ(A2.Kind, core::BackendKind::Scalar);
    ASSERT_NE(core::avx2UnavailableReason(), nullptr);
  }
}

TEST_F(DispatchTest, BackendInfosListEveryTier) {
  const std::vector<core::BackendInfo> Infos = core::backendInfos();
  ASSERT_EQ(Infos.size(), 3u);
  EXPECT_STREQ(Infos[0].Name, "scalar");
  EXPECT_EQ(Infos[0].Lanes, 16);
  EXPECT_TRUE(Infos[0].Compiled);
  EXPECT_TRUE(Infos[0].Available);
  EXPECT_STREQ(Infos[1].Name, "avx2");
  EXPECT_EQ(Infos[1].Lanes, 8);
  EXPECT_STREQ(Infos[2].Name, "avx512");
  EXPECT_EQ(Infos[2].Lanes, 16);
  for (const core::BackendInfo &I : Infos) {
    // Available implies compiled; unavailable tiers explain themselves.
    EXPECT_TRUE(!I.Available || I.Compiled) << I.Name;
    EXPECT_TRUE(I.Available || I.Unavailable != nullptr) << I.Name;
    EXPECT_EQ(I.Available, I.Kind == core::BackendKind::Avx512
                               ? core::avx512Available()
                           : I.Kind == core::BackendKind::Avx2
                               ? core::avx2Available()
                               : true)
        << I.Name;
  }
}

TEST_F(DispatchTest, OverrideSticksUntilReset) {
  core::setBackend(core::BackendKind::Scalar);
  EXPECT_EQ(core::dispatch().Kind, core::BackendKind::Scalar);
  core::resetBackendForTest();
  // Automatic selection picks the best tier the host can run.
  const core::BackendKind Want = core::avx512Available()
                                     ? core::BackendKind::Avx512
                                 : core::avx2Available()
                                     ? core::BackendKind::Avx2
                                     : core::BackendKind::Scalar;
  EXPECT_EQ(core::dispatch().Kind, Want);
}

TEST_F(DispatchTest, PageRankAgreesAcrossBackends) {
  const graph::EdgeList G = graph::genRmat(10, 6000, 42);
  PageRankOptions O;
  O.MaxIterations = 5;
  O.Tolerance = 0.0f;
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(
        K, [&] { return runPageRank(G, PrVersion::TilingInvec, O); });
    ASSERT_EQ(A.Rank.size(), B.Rank.size());
    for (std::size_t I = 0; I < A.Rank.size(); ++I)
      ASSERT_NEAR(A.Rank[I], B.Rank[I], 2e-4f) << "vertex " << I;
  }
}

TEST_F(DispatchTest, FrontierSsspAgreesAcrossBackends) {
  const graph::EdgeList G = graph::genRmat(10, 8000, 7, /*MaxWeight=*/16.0f);
  FrontierOptions O;
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(K, [&] {
      return runFrontier(G, FrApp::Sssp, FrVersion::NontilingInvec, O);
    });
    ASSERT_EQ(A.Value.size(), B.Value.size());
    for (std::size_t I = 0; I < A.Value.size(); ++I)
      ASSERT_FLOAT_EQ(A.Value[I], B.Value[I]) << "vertex " << I;
  }
}

TEST_F(DispatchTest, AggregationAgreesAcrossBackends) {
  const int64_t Rows = 50000;
  const int32_t Card = 512;
  const auto Keys = workload::genKeys(workload::KeyDist::Zipf, Rows, Card, 11);
  const auto Vals = workload::genValues(Rows, 12);
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(K, [&] {
      return runAggregation(Keys.data(), Vals.data(), Rows, Card,
                            AggVersion::LinearInvec);
    });
    ASSERT_EQ(A.Groups.size(), B.Groups.size());
    for (std::size_t I = 0; I < A.Groups.size(); ++I) {
      ASSERT_EQ(A.Groups[I].Key, B.Groups[I].Key);
      ASSERT_EQ(A.Groups[I].Cnt, B.Groups[I].Cnt);
      ASSERT_NEAR(A.Groups[I].Sum, B.Groups[I].Sum,
                  1e-4f * (1.0f + std::abs(A.Groups[I].Sum)));
    }
  }
}

TEST_F(DispatchTest, ReduceByKeyAgreesAcrossBackends) {
  const int64_t N = 20000;
  auto Keys = workload::genKeys(workload::KeyDist::Zipf, N, 256, 21);
  std::sort(Keys.begin(), Keys.end());
  const auto Vals = workload::genValues(N, 22);
  struct Out {
    AlignedVector<int32_t> K;
    AlignedVector<float> V;
    int64_t Runs;
  };
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(K, [&] {
      Out O;
      O.K.resize(N);
      O.V.resize(N);
      O.Runs = reduceByKeyInvec(Keys.data(), Vals.data(), N, O.K.data(),
                                O.V.data());
      return O;
    });
    ASSERT_EQ(A.Runs, B.Runs);
    for (int64_t I = 0; I < A.Runs; ++I) {
      ASSERT_EQ(A.K[I], B.K[I]);
      ASSERT_NEAR(A.V[I], B.V[I], 1e-4f * (1.0f + std::abs(A.V[I])));
    }
  }
}

TEST_F(DispatchTest, MoldynAgreesAcrossBackends) {
  MoldynOptions O;
  O.Cells = 4;
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(
        K, [&] { return runMoldyn(O, MdVersion::TilingInvec, 2); });
    EXPECT_EQ(A.Atoms, B.Atoms);
    EXPECT_EQ(A.Pairs, B.Pairs);
    EXPECT_NEAR(A.FinalKinetic, B.FinalKinetic,
                1e-3 * (1.0 + std::abs(A.FinalKinetic)));
    EXPECT_NEAR(A.FinalPotential, B.FinalPotential,
                1e-3 * (1.0 + std::abs(A.FinalPotential)));
  }
}

TEST_F(DispatchTest, SpmvAgreesAcrossBackends) {
  const graph::EdgeList M = graph::genRmat(9, 4000, 33, /*MaxWeight=*/4.0f);
  AlignedVector<float> X(M.NumNodes, 1.0f);
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(
        K, [&] { return runSpmv(M, X.data(), SpmvVersion::CooInvec, 1); });
    ASSERT_EQ(A.Y.size(), B.Y.size());
    for (std::size_t I = 0; I < A.Y.size(); ++I)
      ASSERT_NEAR(A.Y[I], B.Y[I], 1e-4f * (1.0f + std::abs(A.Y[I])));
  }
}

TEST_F(DispatchTest, MeshAgreesAcrossBackends) {
  const Mesh M = makeTriangulatedGrid(16, 16, 5);
  AlignedVector<float> U0(M.NumCells, 0.0f);
  U0[0] = 100.0f;
  for (const core::BackendKind K : kSimdTiers) {
    SCOPED_TRACE(core::backendName(K));
    const auto [A, B] = onBackendPair(K, [&] {
      return runMeshDiffusion(M, U0.data(), 10, 0.2f, MeshVersion::Invec);
    });
    ASSERT_EQ(A.U.size(), B.U.size());
    for (std::size_t I = 0; I < A.U.size(); ++I)
      ASSERT_NEAR(A.U[I], B.U[I], 1e-4f * (1.0f + std::abs(A.U[I])));
  }
}

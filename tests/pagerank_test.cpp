//===- tests/pagerank_test.cpp - PageRank, all five versions -------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/pagerank/PageRank.h"
#include "apps/pagerank/PageRank64.h"

#include "graph/Generators.h"
#include "util/Prng.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace cfv;
using namespace cfv::apps;
using namespace cfv::graph;

namespace {

constexpr PrVersion kAllVersions[] = {
    PrVersion::NontilingSerial, PrVersion::TilingSerial,
    PrVersion::TilingGrouping, PrVersion::TilingMask,
    PrVersion::TilingInvec};

void expectRanksClose(const AlignedVector<float> &A,
                      const AlignedVector<float> &B, float Tol) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(A[I], B[I], Tol) << "vertex " << I;
}

} // namespace

class PageRankVersions : public ::testing::TestWithParam<PrVersion> {};

TEST_P(PageRankVersions, MatchesSerialOnSkewedGraph) {
  const EdgeList G = genRmat(10, 8000, 0x91);
  const PageRankResult Ref =
      runPageRank(G, PrVersion::NontilingSerial);
  const PageRankResult Got = runPageRank(G, GetParam());
  expectRanksClose(Got.Rank, Ref.Rank, 1e-4f);
  EXPECT_NEAR(Got.Iterations, Ref.Iterations, 2)
      << "float reassociation may shift convergence by an iteration";
}

TEST_P(PageRankVersions, MatchesSerialOnUniformGraph) {
  const EdgeList G = genUniform(10, 6000, 0x92);
  const PageRankResult Ref =
      runPageRank(G, PrVersion::NontilingSerial);
  const PageRankResult Got = runPageRank(G, GetParam());
  expectRanksClose(Got.Rank, Ref.Rank, 1e-4f);
}

TEST_P(PageRankVersions, HotspotGraphMaximizesConflicts) {
  // Every edge points at vertex 0: the worst case for conflict handling.
  EdgeList G;
  G.NumNodes = 64;
  for (int32_t V = 1; V < 64; ++V)
    for (int R = 0; R < 4; ++R) {
      G.Src.push_back(V);
      G.Dst.push_back(0);
    }
  const PageRankResult Ref =
      runPageRank(G, PrVersion::NontilingSerial);
  const PageRankResult Got = runPageRank(G, GetParam());
  expectRanksClose(Got.Rank, Ref.Rank, 1e-4f);
}

TEST_P(PageRankVersions, TinyGraphsAndTails) {
  // Edge counts that exercise the sub-16 tail handling.
  for (const int64_t M : {1, 5, 15, 16, 17, 33}) {
    const EdgeList G = genUniform(4, M, static_cast<uint64_t>(M));
    const PageRankResult Ref =
        runPageRank(G, PrVersion::NontilingSerial);
    const PageRankResult Got = runPageRank(G, GetParam());
    expectRanksClose(Got.Rank, Ref.Rank, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, PageRankVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto &Info) {
                           return versionName(Info.param);
                         });

TEST(PageRank, RankMassIsConserved) {
  const EdgeList G = genRmat(9, 6000, 0x93);
  const PageRankResult R = runPageRank(G, PrVersion::TilingInvec);
  double Mass = 0.0;
  for (float X : R.Rank)
    Mass += X;
  // Dangling vertices leak some mass; it must stay within (0, 1].
  EXPECT_GT(Mass, 0.2);
  EXPECT_LE(Mass, 1.0 + 1e-3);
}

TEST(PageRank, ConvergesWithinIterationCap) {
  const EdgeList G = genRmat(9, 6000, 0x94);
  PageRankOptions O;
  O.MaxIterations = 100;
  const PageRankResult R = runPageRank(G, PrVersion::NontilingSerial, O);
  EXPECT_LT(R.Iterations, 100) << "0.1% tolerance should converge quickly";
  EXPECT_GT(R.Iterations, 2);
}

TEST(PageRank, MaskVersionReportsUtilization) {
  const EdgeList G = genRmat(9, 6000, 0x95);
  const PageRankResult R = runPageRank(G, PrVersion::TilingMask);
  EXPECT_GT(R.SimdUtil, 0.0);
  EXPECT_LE(R.SimdUtil, 1.0);
}

TEST(PageRank, InvecVersionReportsD1AndStaysOnAlg1ForGraphs) {
  const EdgeList G = genUniform(12, 20000, 0x96);
  const PageRankResult R = runPageRank(G, PrVersion::TilingInvec);
  // §3.4: "the graph applications have a very small D1" -- a uniform
  // graph over 4096 vertices has almost no in-vector duplicates.
  EXPECT_LT(R.MeanD1, 1.0);
  EXPECT_FALSE(R.UsedAlg2);
}

TEST(PageRank, HotspotGraphTriggersAlg2) {
  EdgeList G;
  G.NumNodes = 16;
  Xoshiro256 Rng(0x97);
  for (int64_t E = 0; E < 4096; ++E) {
    G.Src.push_back(static_cast<int32_t>(Rng.nextBounded(16)));
    G.Dst.push_back(static_cast<int32_t>(Rng.nextBounded(2)));
  }
  const PageRankResult R = runPageRank(G, PrVersion::TilingInvec);
  EXPECT_GT(R.MeanD1, 1.0);
  EXPECT_TRUE(R.UsedAlg2);
}

TEST(PageRank64, InvecMatchesSerialDoubles) {
  const EdgeList G = genRmat(10, 8000, 0x99);
  const PageRank64Result Ref = runPageRank64(G, Pr64Version::Serial);
  const PageRank64Result Got = runPageRank64(G, Pr64Version::Invec);
  ASSERT_EQ(Got.Rank.size(), Ref.Rank.size());
  for (std::size_t I = 0; I < Ref.Rank.size(); ++I)
    ASSERT_NEAR(Got.Rank[I], Ref.Rank[I], 1e-10) << "vertex " << I;
  EXPECT_EQ(Got.Iterations, Ref.Iterations)
      << "fp64 reassociation noise should not move convergence";
}

TEST(PageRank64, AgreesWithFp32WithinFloatPrecision) {
  const EdgeList G = genUniform(9, 5000, 0x9A);
  const PageRankResult F32 = runPageRank(G, PrVersion::NontilingSerial);
  const PageRank64Result F64 = runPageRank64(G, Pr64Version::Serial);
  for (int32_t V = 0; V < G.NumNodes; ++V)
    ASSERT_NEAR(F64.Rank[V], static_cast<double>(F32.Rank[V]), 1e-4);
}

TEST(PageRank64, HandlesConflictHeavyGraphAndTails) {
  // 8-lane blocks with duplicate destinations plus a non-multiple tail.
  EdgeList G;
  G.NumNodes = 8;
  Xoshiro256 Rng(0x9B);
  for (int64_t E = 0; E < 999; ++E) {
    G.Src.push_back(static_cast<int32_t>(Rng.nextBounded(8)));
    G.Dst.push_back(static_cast<int32_t>(Rng.nextBounded(2)));
  }
  const PageRank64Result Ref = runPageRank64(G, Pr64Version::Serial);
  const PageRank64Result Got = runPageRank64(G, Pr64Version::Invec);
  for (int32_t V = 0; V < G.NumNodes; ++V)
    ASSERT_NEAR(Got.Rank[V], Ref.Rank[V], 1e-9);
  EXPECT_GT(Got.MeanD1, 1.0) << "two hot destinations per 8-lane vector";
}

TEST(PageRank, PhaseTimesAreReported) {
  const EdgeList G = genRmat(9, 6000, 0x98);
  const PageRankResult R = runPageRank(G, PrVersion::TilingGrouping);
  EXPECT_GT(R.ComputeSeconds, 0.0);
  EXPECT_GT(R.TilingSeconds, 0.0);
  EXPECT_GT(R.GroupingSeconds, 0.0);
  EXPECT_DOUBLE_EQ(R.totalSeconds(),
                   R.ComputeSeconds + R.TilingSeconds + R.GroupingSeconds);

  const PageRankResult S = runPageRank(G, PrVersion::NontilingSerial);
  EXPECT_EQ(S.TilingSeconds, 0.0);
  EXPECT_EQ(S.GroupingSeconds, 0.0);
}

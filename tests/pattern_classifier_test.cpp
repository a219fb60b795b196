//===- tests/pattern_classifier_test.cpp - Pattern classifier --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// The per-tile index-stream classifier (src/pattern/): intended classes
// for handcrafted streams, agreement with the verify harness's naive
// reference over every generator family and tail residue, pseudo-tile
// segmentation, the per-tile statistics, and the two whole-dataset entry
// points (classifyTiling over an inspector schedule and
// PreparedGraph::streamPattern).
//
//===----------------------------------------------------------------------===//

#include "graph/Prepared.h"
#include "pattern/Classify.h"
#include "verify/Gen.h"

#include "gtest/gtest.h"

#include <vector>

using namespace cfv;
using pattern::TileClass;

namespace {

AlignedVector<int32_t> conflictFreeStream(int64_t N) {
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>(I % 16);
  return Idx;
}

AlignedVector<int32_t> monotoneStream(int64_t N, int Run) {
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>(I / Run);
  return Idx;
}

AlignedVector<int32_t> smallAlphabetStream(int64_t N) {
  static const int32_t Alpha[5] = {3, 9, 1, 7, 5};
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = Alpha[I % 5];
  return Idx;
}

AlignedVector<int32_t> hotBucketStream(int64_t N) {
  // 60% one target, the rest spread over ~30 cold ones (> 16 distinct,
  // so the small-alphabet rule cannot claim it first).
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] =
        (I % 5 < 3) ? 7 : static_cast<int32_t>(20 + (I * 7) % 60);
  return Idx;
}

AlignedVector<int32_t> generalStream(int64_t N) {
  // Duplicate pairs over a 24-value cycle: conflicts in every window,
  // unsorted, 24 distinct targets, no majority.
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>((I / 2 * 7) % 24);
  return Idx;
}

} // namespace

TEST(PatternClassifier, IntendedClasses) {
  const int64_t N = 160;
  EXPECT_EQ(pattern::classifyRange(conflictFreeStream(N).data(), N).Class,
            TileClass::ConflictFree);
  EXPECT_EQ(pattern::classifyRange(monotoneStream(N, 3).data(), N).Class,
            TileClass::Monotone);
  EXPECT_EQ(pattern::classifyRange(smallAlphabetStream(N).data(), N).Class,
            TileClass::SmallAlphabet);
  EXPECT_EQ(pattern::classifyRange(hotBucketStream(N).data(), N).Class,
            TileClass::HotBucket);
  EXPECT_EQ(pattern::classifyRange(generalStream(N).data(), N).Class,
            TileClass::General);
}

TEST(PatternClassifier, EmptyTileIsConflictFree) {
  EXPECT_EQ(pattern::classifyRange(nullptr, 0).Class,
            TileClass::ConflictFree);
}

TEST(PatternClassifier, PrecedenceConflictFreeBeatsEverything) {
  // A strictly increasing stream is sorted AND window-distinct: the
  // cheaper conflict-free kernel must win over monotone.
  AlignedVector<int32_t> Idx(64);
  for (int I = 0; I < 64; ++I)
    Idx[static_cast<size_t>(I)] = I;
  EXPECT_EQ(pattern::classifyRange(Idx.data(), 64).Class,
            TileClass::ConflictFree);
}

TEST(PatternClassifier, TailResiduesEveryIntendedClass) {
  // Every residue mod 8 and mod 16 (0..16 covers both lane widths),
  // plus straddlers: the classifier must place partial windows in the
  // same class the full-length stream gets.
  for (int64_t N : {0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11,
                    12, 13, 14, 15, 16, 17, 24, 31, 33, 48}) {
    SCOPED_TRACE(N);
    const auto CF = conflictFreeStream(N);
    EXPECT_EQ(pattern::classifyRange(CF.data(), N).Class,
              TileClass::ConflictFree);
    EXPECT_EQ(pattern::classifyRange(CF.data(), N).Class,
              verify::expectedClass(CF.data(), N));
    for (const auto &Idx :
         {monotoneStream(N, 3), smallAlphabetStream(N), hotBucketStream(N),
          generalStream(N)})
      // Short prefixes legitimately fall into cheaper classes (a 4-run
      // monotone prefix of length 3 is conflict-free); what must hold
      // for every length is agreement with the naive reference.
      EXPECT_EQ(pattern::classifyRange(Idx.data(), N).Class,
                verify::expectedClass(Idx.data(), N));
  }
}

TEST(PatternClassifier, AgreesWithReferenceOnEveryGenFamily) {
  // The generator tags each workload via verify::expectedClass; the
  // production single-scan classifier must agree across every index
  // family, value family, and tail residue the enumerator emits.
  for (uint64_t CaseNo = 0; CaseNo < 600; ++CaseNo) {
    const verify::Workload W =
        verify::genWorkload(verify::specForCase(0xC1A55, CaseNo));
    SCOPED_TRACE(W.Spec.toString());
    EXPECT_EQ(pattern::classifyRange(W.Idx.data(), W.Spec.N).Class,
              W.Expected);
  }
}

TEST(PatternClassifier, SmallAlphabetGenFamilyLandsInClass) {
  // The dedicated generator family must actually produce the class it
  // was added to stress (for lengths long enough to rule out CF).
  verify::CaseSpec S;
  S.Seed = 42;
  S.N = 256;
  S.Universe = 509;
  S.Idx = verify::IdxPattern::SmallAlphabet;
  const verify::Workload W = verify::genWorkload(S);
  EXPECT_EQ(W.Expected, TileClass::SmallAlphabet);
  EXPECT_EQ(pattern::classifyRange(W.Idx.data(), W.Spec.N).Class,
            TileClass::SmallAlphabet);
}

TEST(PatternClassifier, StreamSegmentation) {
  // Three 64-element pseudo-tiles with different shapes, plus a 17-
  // element tail tile: per-tile classes and the count summary.
  AlignedVector<int32_t> Idx;
  const auto Append = [&](const AlignedVector<int32_t> &S) {
    Idx.insert(Idx.end(), S.begin(), S.end());
  };
  Append(conflictFreeStream(64));
  Append(monotoneStream(64, 3));
  Append(generalStream(64));
  Append(conflictFreeStream(17));

  const pattern::PatternResult P =
      pattern::classifyStream(Idx.data(), static_cast<int64_t>(Idx.size()),
                              /*TileLen=*/64);
  ASSERT_EQ(P.numTiles(), 4);
  EXPECT_EQ(P.TileLen, 64);
  EXPECT_EQ(P.Tiles[0].Class, TileClass::ConflictFree);
  EXPECT_EQ(P.Tiles[1].Class, TileClass::Monotone);
  EXPECT_EQ(P.Tiles[2].Class, TileClass::General);
  EXPECT_EQ(P.Tiles[3].Class, TileClass::ConflictFree);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::ConflictFree)], 2);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::Monotone)], 1);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::General)], 1);
}

TEST(PatternClassifier, StreamTileLenRoundsToWindow) {
  // Pseudo-tile starts must stay window-aligned (the certification
  // contract), so odd lengths round up to a multiple of 16.
  const auto Idx = conflictFreeStream(128);
  const pattern::PatternResult P =
      pattern::classifyStream(Idx.data(), 128, /*TileLen=*/50);
  EXPECT_EQ(P.TileLen, 64);
  EXPECT_EQ(P.numTiles(), 2);
}

TEST(PatternClassifier, TileStatistics) {
  const int64_t N = 160;
  const auto Mono = monotoneStream(N, 4);
  const pattern::TileInfo M = pattern::classifyRange(Mono.data(), N);
  EXPECT_EQ(M.MaxRun, 4);
  EXPECT_GT(M.D1Estimate, 0.0f);

  const auto Alpha = smallAlphabetStream(N);
  const pattern::TileInfo A = pattern::classifyRange(Alpha.data(), N);
  ASSERT_EQ(A.Class, TileClass::SmallAlphabet);
  EXPECT_EQ(A.AlphabetSize, 5);
  // The stored alphabet is sorted and matches the distinct targets.
  const int32_t Want[5] = {1, 3, 5, 7, 9};
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(A.Alphabet[I], Want[I]);

  const auto Hot = hotBucketStream(N);
  const pattern::TileInfo H = pattern::classifyRange(Hot.data(), N);
  ASSERT_EQ(H.Class, TileClass::HotBucket);
  EXPECT_EQ(H.HotIdx, 7);
  EXPECT_NEAR(H.HotShare, 0.6f, 0.01f);

  const pattern::TileInfo C =
      pattern::classifyRange(conflictFreeStream(N).data(), N);
  EXPECT_EQ(C.D1Estimate, 0.0f);
}

TEST(PatternClassifier, ClassNamesAreStable) {
  // Metric label / JSON field names: renames break dashboards.
  EXPECT_STREQ(pattern::tileClassName(TileClass::ConflictFree),
               "conflict_free");
  EXPECT_STREQ(pattern::tileClassName(TileClass::Monotone), "monotone");
  EXPECT_STREQ(pattern::tileClassName(TileClass::SmallAlphabet),
               "small_alphabet");
  EXPECT_STREQ(pattern::tileClassName(TileClass::HotBucket), "hot_bucket");
  EXPECT_STREQ(pattern::tileClassName(TileClass::General), "general");
}

namespace {

void expectSameInfo(const pattern::TileInfo &Got,
                    const pattern::TileInfo &Want) {
  EXPECT_EQ(Got.Class, Want.Class);
  EXPECT_EQ(Got.Distinct, Want.Distinct);
  EXPECT_EQ(Got.MaxRun, Want.MaxRun);
  EXPECT_EQ(Got.D1Estimate, Want.D1Estimate);
  EXPECT_EQ(Got.HotIdx, Want.HotIdx);
  EXPECT_EQ(Got.HotShare, Want.HotShare);
  ASSERT_EQ(Got.AlphabetSize, Want.AlphabetSize);
  for (int I = 0; I < Got.AlphabetSize; ++I)
    EXPECT_EQ(Got.Alphabet[I], Want.Alphabet[I]);
}

void expectSameResult(const pattern::PatternResult &Got,
                      const pattern::PatternResult &Want) {
  EXPECT_EQ(Got.BlockBits, Want.BlockBits);
  EXPECT_EQ(Got.TileLen, Want.TileLen);
  for (int C = 0; C < pattern::kNumTileClasses; ++C)
    EXPECT_EQ(Got.Counts[C], Want.Counts[C]) << "class " << C;
  ASSERT_EQ(Got.numTiles(), Want.numTiles());
  for (int64_t T = 0; T < Got.numTiles(); ++T) {
    SCOPED_TRACE("tile " + std::to_string(T));
    expectSameInfo(Got.Tiles[static_cast<size_t>(T)],
                   Want.Tiles[static_cast<size_t>(T)]);
  }
}

constexpr int kTileBits = 4; // 16 destinations per tile

/// 40 nodes, so three destination tiles of 16, 16 and 8 nodes.  Tile 0
/// holds 4000 conflict-free edges, tile 1 4000 monotone ones and tile 2
/// a short run of 7 over two targets.  The tiles' edges are interleaved
/// in edge order, so the inspector's permutation has real work to undo;
/// the first 4096 sources rise and the rest repeat in pairs over a
/// 24-value cycle, so the flat source stream spans two differently shaped
/// pseudo-tiles.
graph::EdgeList threeTileGraph() {
  std::vector<int32_t> Tiles[3];
  for (int32_t I = 0; I < 4000; ++I) {
    Tiles[0].push_back(I % 16);
    Tiles[1].push_back(16 + I * 16 / 4000);
  }
  for (int32_t I = 0; I < 7; ++I)
    Tiles[2].push_back(32 + I % 2);
  graph::EdgeList G;
  G.NumNodes = 40;
  for (size_t I = 0; I < 4000; ++I)
    for (const std::vector<int32_t> &T : Tiles)
      if (I < T.size())
        G.Dst.push_back(T[I]);
  for (int64_t E = 0; E < static_cast<int64_t>(G.Dst.size()); ++E)
    G.Src.push_back(E < 4096 ? static_cast<int32_t>(E / 103)
                             : static_cast<int32_t>((E / 2 * 7) % 24));
  return G;
}

} // namespace

TEST(PatternClassifier, TilingMatchesRangeOnEveryPermutedTile) {
  const graph::EdgeList G = threeTileGraph();
  const inspector::TilingResult T = inspector::tileByDestination(
      G.Dst.data(), G.numEdges(), G.NumNodes, kTileBits);
  ASSERT_EQ(T.numTiles(), 3);
  ASSERT_EQ(T.TileBegin[3] - T.TileBegin[2], 7); // the short last tile

  const pattern::PatternResult P = pattern::classifyTiling(T, G.Dst.data());
  EXPECT_EQ(P.BlockBits, kTileBits);
  EXPECT_EQ(P.TileLen, 0);
  ASSERT_EQ(P.numTiles(), 3);

  // Reference: materialize the tiled stream, classify each tile as a
  // plain range.
  const AlignedVector<int32_t> Tiled =
      inspector::applyPermutation(T.Order, G.Dst.data());
  pattern::PatternResult Want;
  Want.BlockBits = kTileBits;
  for (int64_t I = 0; I < T.numTiles(); ++I) {
    const int64_t Lo = T.TileBegin[static_cast<size_t>(I)];
    const int64_t Hi = T.TileBegin[static_cast<size_t>(I) + 1];
    Want.Tiles.push_back(pattern::classifyRange(Tiled.data() + Lo, Hi - Lo));
    ++Want.Counts[static_cast<int>(Want.Tiles.back().Class)];
  }
  expectSameResult(P, Want);
  // The three tiles were built to land in three different classes.
  EXPECT_EQ(P.Tiles[0].Class, TileClass::ConflictFree);
  EXPECT_EQ(P.Tiles[1].Class, TileClass::Monotone);
  EXPECT_EQ(P.Tiles[2].Class, TileClass::SmallAlphabet);
}

TEST(PatternClassifier, StreamPatternClassifiesSourcesOnce) {
  graph::EdgeList G = threeTileGraph();
  const pattern::PatternResult Want =
      pattern::classifyStream(G.Src.data(), G.numEdges());
  ASSERT_EQ(Want.numTiles(), 2);
  EXPECT_EQ(Want.Tiles[0].Class, TileClass::Monotone);
  EXPECT_EQ(Want.Tiles[1].Class, TileClass::General);

  const graph::PreparedGraph Prep(std::move(G));
  const int64_t Before = Prep.approxBytes();
  const pattern::PatternResult &P = Prep.streamPattern();
  expectSameResult(P, Want);
  EXPECT_EQ(Prep.approxBytes(), Before + P.approxBytes());
  EXPECT_GT(Prep.approxBytes(), Before);

  // Memoized: the second call hands back the same object and adds no
  // bytes.
  EXPECT_EQ(&Prep.streamPattern(), &P);
  EXPECT_EQ(Prep.approxBytes(), Before + P.approxBytes());
}

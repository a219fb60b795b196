//===- pattern/Classify.cpp - Per-tile index-stream classifier ------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "pattern/Classify.h"

#include <algorithm>
#include <cstring>

using namespace cfv;
using namespace cfv::pattern;

const char *pattern::tileClassName(TileClass C) {
  switch (C) {
  case TileClass::ConflictFree:
    return "conflict_free";
  case TileClass::Monotone:
    return "monotone";
  case TileClass::SmallAlphabet:
    return "small_alphabet";
  case TileClass::HotBucket:
    return "hot_bucket";
  case TileClass::General:
    return "general";
  }
  return "unknown";
}

namespace {

/// One scan of tile elements A(0..N-1): monotonicity, run lengths,
/// aligned-window duplicates, distinct set up to kMaxAlphabet, and a
/// Boyer-Moore majority candidate.  A second pass counts the candidate
/// exactly, but only when the cheaper classes have been ruled out.
template <typename AccessFn> TileInfo classifyOne(AccessFn A, int64_t N) {
  TileInfo Info;
  if (N <= 0) {
    // An empty tile trivially has no conflicts.
    Info.Class = TileClass::ConflictFree;
    return Info;
  }

  bool Mono = true;
  bool CF = true;
  int32_t Prev = 0;
  int32_t Run = 0, MaxRun = 1;

  int32_t Alpha[kMaxAlphabet];
  int AlphaN = 0;
  bool AlphaOver = false;

  int32_t Cand = 0;
  int64_t Vote = 0;

  int64_t DupLanes = 0, Windows = 0;
  int32_t Win[kClassifyWindow];

  for (int64_t Base = 0; Base < N; Base += kClassifyWindow) {
    const int64_t End = std::min<int64_t>(N, Base + kClassifyWindow);
    int Dup = 0;
    for (int64_t I = Base; I < End; ++I) {
      const int32_t X = A(I);
      const int W = static_cast<int>(I - Base);
      bool Seen = false;
      for (int J = 0; J < W; ++J)
        if (Win[J] == X) {
          Seen = true;
          break;
        }
      Win[W] = X;
      if (Seen)
        ++Dup;

      if (I == 0) {
        Run = 1;
      } else if (X == Prev) {
        if (++Run > MaxRun)
          MaxRun = Run;
      } else {
        if (X < Prev)
          Mono = false;
        Run = 1;
      }
      Prev = X;

      if (Vote == 0) {
        Cand = X;
        Vote = 1;
      } else {
        Vote += X == Cand ? 1 : -1;
      }

      if (!AlphaOver) {
        int32_t *Pos = std::lower_bound(Alpha, Alpha + AlphaN, X);
        if (Pos == Alpha + AlphaN || *Pos != X) {
          if (AlphaN == kMaxAlphabet) {
            AlphaOver = true;
          } else {
            std::memmove(Pos + 1, Pos,
                         static_cast<size_t>(Alpha + AlphaN - Pos) *
                             sizeof(int32_t));
            *Pos = X;
            ++AlphaN;
          }
        }
      }
    }
    if (Dup)
      CF = false;
    DupLanes += Dup;
    ++Windows;
  }

  Info.MaxRun = MaxRun;
  Info.D1Estimate =
      static_cast<float>(static_cast<double>(DupLanes) /
                         static_cast<double>(Windows));
  Info.Distinct = AlphaOver ? kMaxAlphabet + 1 : AlphaN;

  if (CF) {
    Info.Class = TileClass::ConflictFree;
  } else if (Mono) {
    Info.Class = TileClass::Monotone;
  } else if (!AlphaOver) {
    Info.Class = TileClass::SmallAlphabet;
    Info.AlphabetSize = AlphaN;
    std::memcpy(Info.Alphabet, Alpha,
                static_cast<size_t>(AlphaN) * sizeof(int32_t));
  } else {
    // Majority vote: if any target holds a strict majority, Cand is it.
    int64_t Cnt = 0;
    for (int64_t I = 0; I < N; ++I)
      if (A(I) == Cand)
        ++Cnt;
    if (Cnt * 2 > N) {
      Info.Class = TileClass::HotBucket;
      Info.HotIdx = Cand;
      Info.HotShare = static_cast<float>(static_cast<double>(Cnt) /
                                         static_cast<double>(N));
    } else {
      Info.Class = TileClass::General;
    }
  }
  return Info;
}

template <typename AccessFn>
PatternResult classifyAllTiles(AccessFn A, const std::vector<int64_t> &Begin,
                               int BlockBits, int64_t TileLen) {
  PatternResult R;
  R.BlockBits = BlockBits;
  R.TileLen = TileLen;
  const int64_t Tiles = static_cast<int64_t>(Begin.size()) - 1;
  R.Tiles.reserve(static_cast<size_t>(Tiles > 0 ? Tiles : 0));
  for (int64_t T = 0; T < Tiles; ++T) {
    const int64_t Lo = Begin[static_cast<size_t>(T)];
    const int64_t Hi = Begin[static_cast<size_t>(T) + 1];
    TileInfo Info =
        classifyOne([&](int64_t I) { return A(Lo + I); }, Hi - Lo);
    ++R.Counts[static_cast<int>(Info.Class)];
    R.Tiles.push_back(Info);
  }
  return R;
}

std::vector<int64_t> pseudoTileBounds(int64_t N, int64_t TileLen) {
  std::vector<int64_t> Begin;
  Begin.push_back(0);
  for (int64_t Lo = 0; Lo < N; Lo += TileLen)
    Begin.push_back(std::min<int64_t>(N, Lo + TileLen));
  return Begin;
}

} // namespace

TileInfo pattern::classifyRange(const int32_t *Idx, int64_t N) {
  return classifyOne([Idx](int64_t I) { return Idx[I]; }, N);
}

PatternResult pattern::classifyStream(const int32_t *Idx, int64_t N,
                                      int64_t TileLen) {
  // Pseudo-tile starts must be window-aligned (the certification
  // contract in Classify.h), so round odd lengths up.
  if (TileLen < kClassifyWindow)
    TileLen = kClassifyWindow;
  TileLen = (TileLen + kClassifyWindow - 1) / kClassifyWindow *
            kClassifyWindow;
  return classifyAllTiles([Idx](int64_t I) { return Idx[I]; },
                          pseudoTileBounds(N, TileLen), /*BlockBits=*/-1,
                          TileLen);
}

PatternResult pattern::classifyTiling(const inspector::TilingResult &T,
                                      const int32_t *Values) {
  const int32_t *Order = T.Order.data();
  return classifyAllTiles(
      [Order, Values](int64_t I) { return Values[Order[I]]; }, T.TileBegin,
      T.BlockBits, /*TileLen=*/0);
}

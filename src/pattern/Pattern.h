//===- pattern/Pattern.h - Index-stream pattern classes ---------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data model of the pattern classifier: each tile of an irregular index
/// stream is scanned once and tagged with one of five classes, together
/// with the stats that decided it (distinct targets, longest run, the D1
/// the paper's cost model would charge).
///
/// The classification is a diagnostic.  No kernel dispatches on it: every
/// app runs the paper's general conflict handling (Algorithm 1, 2 + 8*D1,
/// or Algorithm 2, 7 + 8*D2, under the adaptive policy) on every tile.
/// DESIGN.md section 14 gives the measurements behind that.
///
/// Everything here is ISA-independent plain data; the classifier lives in
/// pattern/Classify.h.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PAT_PATTERN_H
#define CFV_PAT_PATTERN_H

#include <cstdint>
#include <vector>

namespace cfv {
namespace pattern {

/// Classes a tile's index stream can land in, in precedence order: the
/// first class whose predicate holds wins.
enum class TileClass : uint8_t {
  /// No duplicate index inside any aligned 16-lane window of the tile:
  /// a pure gather/compute/scatter would need no conflict handling.
  /// Checked at 16 lanes (the widest backend), so the tag holds for any
  /// lane width <= 16.
  ConflictFree,
  /// Non-decreasing indices: duplicates only in contiguous runs.
  Monotone,
  /// At most kMaxAlphabet distinct targets in the whole tile.
  SmallAlphabet,
  /// One target absorbs a strict majority of the tile's references.
  HotBucket,
  /// None of the above.
  General,
};
constexpr int kNumTileClasses = 5;

/// Stable name for \p C ("conflict_free", ...).
const char *tileClassName(TileClass C);

/// ConflictFree is certified on aligned windows of this many lanes --
/// the widest compiled backend -- so every narrower backend's aligned
/// vectors are sub-windows of certified-distinct ones.
constexpr int kClassifyWindow = 16;

/// SmallAlphabet ceiling: one 16-lane register's worth of targets.
constexpr int kMaxAlphabet = 16;

/// HotBucket threshold: the dominant target must absorb strictly more
/// than this fraction of the tile's references.  Exactly 1/2 so a
/// single-pass majority vote (Boyer-Moore) finds the candidate without a
/// per-target count table, and the reference classifier in verify/Gen
/// provably agrees on every stream.
constexpr float kHotShareMin = 0.5f;

/// Per-tile classification outcome plus the stats that drove it.
struct TileInfo {
  TileClass Class = TileClass::General;
  /// Distinct targets referenced by the tile, exact up to
  /// kMaxAlphabet + 1 and saturated there ("more than an alphabet").
  int32_t Distinct = 0;
  /// Longest run of equal consecutive indices.
  int32_t MaxRun = 0;
  /// Mean duplicate-lane count per aligned 16-lane window (sampled): the
  /// D1 the paper's cost model would charge this tile.
  float D1Estimate = 0.0f;
  /// Dominant target and its share of the tile (valid when Class is
  /// HotBucket; best-effort stats otherwise).
  int32_t HotIdx = -1;
  float HotShare = 0.0f;
  /// The tile's distinct targets when Class is SmallAlphabet
  /// (AlphabetSize entries, ascending); unused otherwise.
  int32_t AlphabetSize = 0;
  int32_t Alphabet[kMaxAlphabet] = {};
};

/// Classification of one tiled (or pseudo-tiled) index stream.
struct PatternResult {
  /// Block size the owning tiling used; -1 for pseudo-tiled flat streams
  /// (classifyStream), whose tiles are fixed-size windows.
  int BlockBits = -1;
  /// Pseudo-tile length when BlockBits == -1 (tile t spans
  /// [t*TileLen, min((t+1)*TileLen, N))); 0 for inspector tilings.
  int64_t TileLen = 0;
  /// One entry per tile, in tile order.
  std::vector<TileInfo> Tiles;
  /// Tiles per class, indexed by TileClass.
  int64_t Counts[kNumTileClasses] = {};

  int64_t numTiles() const { return static_cast<int64_t>(Tiles.size()); }

  /// Resident bytes, for the dataset cache's byte budget.
  int64_t approxBytes() const {
    return static_cast<int64_t>(Tiles.capacity() * sizeof(TileInfo) +
                                sizeof(PatternResult));
  }
};

} // namespace pattern
} // namespace cfv

#endif // CFV_PAT_PATTERN_H

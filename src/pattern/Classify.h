//===- pattern/Classify.h - Per-tile index-stream classifier ----*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pattern classifier: one linear scan per tile assigns a TileClass
/// plus the stats in pattern::TileInfo.  Everything is scalar and
/// ISA-independent -- it is a diagnostic, so simplicity and exactness
/// beat vectorizing the analysis itself.
///
/// ConflictFree means *no aligned 16-lane window measured from the tile's
/// first element contains a duplicate index*, so every tile-aligned 8- or
/// 16-lane vector is a sub-window of a certified window.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PAT_CLASSIFY_H
#define CFV_PAT_CLASSIFY_H

#include "inspector/Tiling.h"
#include "pattern/Pattern.h"

#include <cstdint>

namespace cfv {
namespace pattern {

/// Pseudo-tile length for flat (untiled) streams: short enough that one
/// misbehaving stretch cannot drag a whole stream to General.  Must stay
/// a multiple of kClassifyWindow so pseudo-tile starts are
/// window-aligned.
constexpr int64_t kStreamTileLen = 4096;

/// Classifies one contiguous index range as a single tile.  Exposed as
/// the unit the tests and the verify reference classifier check against.
TileInfo classifyRange(const int32_t *Idx, int64_t N);

/// Classifies a flat stream in fixed pseudo-tiles of \p TileLen
/// (BlockBits = -1 in the result).  Used for streams that have no
/// inspector tiling: graph::PreparedGraph::streamPattern and the
/// verification pipelines.
PatternResult classifyStream(const int32_t *Idx, int64_t N,
                             int64_t TileLen = kStreamTileLen);

/// Classifies an inspector tiling: element p of the tiled stream is
/// Values[T.Order[p]], tile t spans [T.TileBegin[t], T.TileBegin[t+1]).
/// The permutation is applied on the fly, so the permuted copy never
/// needs to be materialized.
PatternResult classifyTiling(const inspector::TilingResult &T,
                             const int32_t *Values);

} // namespace pattern
} // namespace cfv

#endif // CFV_PAT_CLASSIFY_H

//===- inspector/Tiling.h - Cache tiling of irregular updates ---*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "tiling" half of the inspector/executor baseline (Chen et al.,
/// CGO'16): edges are re-ordered so that edges updating the same block of
/// the reduction array are processed together, keeping the randomly
/// accessed region cache-resident.  The paper's tiling_serial /
/// tiling_and_* versions all run on data prepared this way, and the
/// harnesses report the tiling wall time as a separate phase exactly as
/// Figures 8-12 do.
///
/// The inspector produces a *permutation* of edge ids rather than moving
/// payloads itself, so applications can apply it to any number of
/// parallel arrays (sources, destinations, weights, ...).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_INSPECTOR_TILING_H
#define CFV_INSPECTOR_TILING_H

#include "util/AlignedAlloc.h"

#include <cstdint>
#include <vector>

namespace cfv {
namespace inspector {

/// Result of the tiling inspector: a permutation of edge ids grouped into
/// tiles of destination blocks.
struct TilingResult {
  /// Permutation: position p of the tiled order holds original edge
  /// Order[p].
  AlignedVector<int32_t> Order;
  /// Tile boundaries into Order; tile t spans
  /// [TileBegin[t], TileBegin[t+1]).  Size = numTiles() + 1.
  std::vector<int64_t> TileBegin;
  /// Destination block size is 1 << BlockBits reduction-array entries.
  int BlockBits = 0;

  int64_t numTiles() const {
    return static_cast<int64_t>(TileBegin.size()) - 1;
  }

  /// Resident bytes of the schedule, for cache byte-budget accounting
  /// (graph::PreparedGraph / service::DatasetCache).
  int64_t approxBytes() const {
    return static_cast<int64_t>(Order.size() * sizeof(int32_t) +
                                TileBegin.size() * sizeof(int64_t));
  }
};

/// Buckets \p NumEdges edges by destination block Dst[e] >> BlockBits
/// (stable counting sort, O(E + tiles)).  The default block of 2^16
/// entries keeps one float reduction block at 256 KiB, comfortably inside
/// a per-core L2.
TilingResult tileByDestination(const int32_t *Dst, int64_t NumEdges,
                               int32_t NumNodes, int BlockBits = 16);

/// Materializes one payload array in tiled order:
/// result[p] = Values[Order[p]].
template <typename T>
AlignedVector<T> applyPermutation(const AlignedVector<int32_t> &Order,
                                  const T *Values) {
  AlignedVector<T> Out(Order.size());
  for (std::size_t P = 0; P < Order.size(); ++P)
    Out[P] = Values[Order[P]];
  return Out;
}

} // namespace inspector
} // namespace cfv

#endif // CFV_INSPECTOR_TILING_H

//===- graph/Prepared.h - Shareable dataset + derived schedules -*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A loaded graph together with its memoized derived artifacts: the CSR
/// adjacency, out-degrees, and the inspector's destination-block tiling
/// schedules.  The paper's executor amortizes inspector cost across
/// iterations of one run; PreparedGraph extends that amortization across
/// *runs* -- the serving layer caches one PreparedGraph per dataset and
/// every request against it reuses the schedules instead of rebuilding
/// them (the same argument that motivates precomputed schedules in
/// Autovesk's pipeline).
///
/// The object is logically const after construction: artifacts build
/// lazily under an internal mutex on first use and are immutable
/// afterwards, so concurrent requests may share one instance.  References
/// returned by the accessors stay valid for the lifetime of the
/// PreparedGraph (the dataset cache hands out shared_ptr ownership, so an
/// in-flight run keeps its dataset alive across an eviction).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_GRAPH_PREPARED_H
#define CFV_GRAPH_PREPARED_H

#include "graph/Graph.h"
#include "inspector/Tiling.h"
#include "pattern/Pattern.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace cfv {
namespace graph {

class PreparedGraph {
public:
  explicit PreparedGraph(EdgeList G);

  /// The loaded edge list (immutable).
  const EdgeList &edges() const { return Edges; }

  /// Memoized CSR adjacency (graph::buildCsr on first use).
  const Csr &csr() const;

  /// Memoized out-degree array (graph::outDegrees on first use).
  const AlignedVector<int32_t> &outDegrees() const;

  /// Memoized destination-block tiling for \p BlockBits (one schedule per
  /// distinct block size; apps overwhelmingly use the default 16).
  const inspector::TilingResult &tiling(int BlockBits) const;

  /// Memoized pattern classification of the flat *source* stream
  /// (Edges.Src, the row stream SpMV's COO versions reduce into) in
  /// pseudo-tiles: pattern::classifyStream(Edges.Src, numEdges()).  A
  /// diagnostic only -- no kernel dispatches on it.  The first call adds
  /// the result's bytes to approxBytes().
  const pattern::PatternResult &streamPattern() const;

  /// Resident bytes: edge list plus every artifact built so far.  Grows
  /// as lazy artifacts materialize; the dataset cache re-reads it on each
  /// access so the byte budget covers derived schedules, not just raw
  /// edges.
  int64_t approxBytes() const {
    return BaseBytes + ArtifactBytes.load(std::memory_order_relaxed);
  }

  PreparedGraph(const PreparedGraph &) = delete;
  PreparedGraph &operator=(const PreparedGraph &) = delete;

private:
  EdgeList Edges;
  int64_t BaseBytes = 0;

  mutable std::mutex Mu; // guards lazy construction below
  mutable std::unique_ptr<Csr> CsrPtr;
  mutable std::unique_ptr<AlignedVector<int32_t>> Degrees;
  mutable std::map<int, std::unique_ptr<inspector::TilingResult>> Tilings;
  mutable std::unique_ptr<pattern::PatternResult> StreamPattern;
  mutable std::atomic<int64_t> ArtifactBytes{0};
};

} // namespace graph
} // namespace cfv

#endif // CFV_GRAPH_PREPARED_H

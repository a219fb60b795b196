//===- graph/Graph.h - Edge-list and CSR graph structures -------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph substrate for the paper's four graph applications.  Graphs are
/// stored primarily as COO edge lists (the paper's n1/n2 indirection
/// arrays, the "non-zeros of the sparse matrix" in its Sparse Matrix
/// View), with a CSR form for frontier expansion and reference
/// algorithms.  Vertex ids are int32_t; edge counts are int64_t.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_GRAPH_GRAPH_H
#define CFV_GRAPH_GRAPH_H

#include "util/AlignedAlloc.h"

#include <cstdint>

namespace cfv {
namespace graph {

/// COO edge list; Weight may be empty for unweighted graphs.
struct EdgeList {
  int32_t NumNodes = 0;
  AlignedVector<int32_t> Src;
  AlignedVector<int32_t> Dst;
  AlignedVector<float> Weight;

  int64_t numEdges() const { return static_cast<int64_t>(Src.size()); }
  bool isWeighted() const { return !Weight.empty(); }
};

/// Compressed sparse rows over the source vertex.
struct Csr {
  int32_t NumNodes = 0;
  std::vector<int64_t> RowBegin; // NumNodes + 1 offsets
  AlignedVector<int32_t> Col;
  AlignedVector<float> Weight; // empty when unweighted

  int64_t numEdges() const { return static_cast<int64_t>(Col.size()); }
  int64_t degree(int32_t V) const { return RowBegin[V + 1] - RowBegin[V]; }
};

/// Builds a CSR adjacency (by source) from an edge list.
Csr buildCsr(const EdgeList &E);

/// Out-degree of every vertex (the paper's nneighbor array; vertices
/// without outgoing edges report 0).
AlignedVector<int32_t> outDegrees(const EdgeList &E);

/// Sorts the edges by destination (stable), the layout reduce_by_key
/// requires for its "reduction on the columns of the sparse matrix"
/// simulation (§4.5).
EdgeList sortByDestination(const EdgeList &E);

} // namespace graph
} // namespace cfv

#endif // CFV_GRAPH_GRAPH_H

//===- graph/Graph.cpp - Edge-list and CSR graph structures --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include <cassert>

using namespace cfv;
using namespace cfv::graph;

Csr graph::buildCsr(const EdgeList &E) {
  Csr C;
  C.NumNodes = E.NumNodes;
  C.RowBegin.assign(E.NumNodes + 1, 0);
  const int64_t M = E.numEdges();
  for (int64_t I = 0; I < M; ++I) {
    assert(E.Src[I] >= 0 && E.Src[I] < E.NumNodes && "source out of range");
    ++C.RowBegin[E.Src[I] + 1];
  }
  for (int32_t V = 0; V < E.NumNodes; ++V)
    C.RowBegin[V + 1] += C.RowBegin[V];

  C.Col.resize(M);
  if (E.isWeighted())
    C.Weight.resize(M);
  std::vector<int64_t> Cursor(C.RowBegin.begin(), C.RowBegin.end() - 1);
  for (int64_t I = 0; I < M; ++I) {
    const int64_t P = Cursor[E.Src[I]]++;
    C.Col[P] = E.Dst[I];
    if (E.isWeighted())
      C.Weight[P] = E.Weight[I];
  }
  return C;
}

AlignedVector<int32_t> graph::outDegrees(const EdgeList &E) {
  AlignedVector<int32_t> Deg(E.NumNodes, 0);
  for (int64_t I = 0, M = E.numEdges(); I < M; ++I)
    ++Deg[E.Src[I]];
  return Deg;
}

EdgeList graph::sortByDestination(const EdgeList &E) {
  // Stable counting sort on the destination vertex.
  EdgeList R;
  R.NumNodes = E.NumNodes;
  const int64_t M = E.numEdges();
  R.Src.resize(M);
  R.Dst.resize(M);
  if (E.isWeighted())
    R.Weight.resize(M);

  std::vector<int64_t> Count(E.NumNodes + 1, 0);
  for (int64_t I = 0; I < M; ++I) {
    assert(E.Dst[I] >= 0 && E.Dst[I] < E.NumNodes && "dest out of range");
    ++Count[E.Dst[I] + 1];
  }
  for (int32_t V = 0; V < E.NumNodes; ++V)
    Count[V + 1] += Count[V];
  for (int64_t I = 0; I < M; ++I) {
    const int64_t P = Count[E.Dst[I]]++;
    R.Src[P] = E.Src[I];
    R.Dst[P] = E.Dst[I];
    if (E.isWeighted())
      R.Weight[P] = E.Weight[I];
  }
  return R;
}

//===- graph/Prepared.cpp - Shareable dataset + derived schedules ---------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "graph/Prepared.h"

#include "pattern/Classify.h"

using namespace cfv;
using namespace cfv::graph;

namespace {

int64_t edgeListBytes(const EdgeList &E) {
  return static_cast<int64_t>(E.Src.capacity() * sizeof(int32_t) +
                              E.Dst.capacity() * sizeof(int32_t) +
                              E.Weight.capacity() * sizeof(float));
}

int64_t csrBytes(const Csr &C) {
  return static_cast<int64_t>(C.RowBegin.capacity() * sizeof(int64_t) +
                              C.Col.capacity() * sizeof(int32_t) +
                              C.Weight.capacity() * sizeof(float));
}

} // namespace

PreparedGraph::PreparedGraph(EdgeList G) : Edges(std::move(G)) {
  BaseBytes = edgeListBytes(Edges);
}

const Csr &PreparedGraph::csr() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!CsrPtr) {
    CsrPtr = std::make_unique<Csr>(buildCsr(Edges));
    ArtifactBytes.fetch_add(csrBytes(*CsrPtr), std::memory_order_relaxed);
  }
  return *CsrPtr;
}

const AlignedVector<int32_t> &PreparedGraph::outDegrees() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Degrees) {
    Degrees = std::make_unique<AlignedVector<int32_t>>(
        graph::outDegrees(Edges));
    ArtifactBytes.fetch_add(
        static_cast<int64_t>(Degrees->capacity() * sizeof(int32_t)),
        std::memory_order_relaxed);
  }
  return *Degrees;
}

const inspector::TilingResult &PreparedGraph::tiling(int BlockBits) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Tilings.find(BlockBits);
  if (It == Tilings.end()) {
    auto T = std::make_unique<inspector::TilingResult>(
        inspector::tileByDestination(Edges.Dst.data(), Edges.numEdges(),
                                     Edges.NumNodes, BlockBits));
    ArtifactBytes.fetch_add(T->approxBytes(), std::memory_order_relaxed);
    It = Tilings.emplace(BlockBits, std::move(T)).first;
  }
  return *It->second;
}

const pattern::PatternResult &PreparedGraph::streamPattern() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!StreamPattern) {
    StreamPattern = std::make_unique<pattern::PatternResult>(
        pattern::classifyStream(Edges.Src.data(), Edges.numEdges()));
    ArtifactBytes.fetch_add(StreamPattern->approxBytes(),
                            std::memory_order_relaxed);
  }
  return *StreamPattern;
}

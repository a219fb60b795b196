//===- perfbench/src/Layers.cpp - Per-layer metrics of a traced run -------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "core/CostModel.h"
#include "graph/Prepared.h"
#include "inspector/Tiling.h"
#include "pattern/Classify.h"

#include <algorithm>

using namespace cfv;
using namespace perfbench;

namespace {

const char *const kShort[kNumDatasets] = {"higgs", "pokec", "amazon"};
const char *const kName[kNumDatasets] = {"higgs-twitter-sim", "soc-pokec-sim",
                                         "amazon0312-sim"};

double perOp(double Sum, int64_t Ops) {
  return Ops > 0 ? Sum / static_cast<double>(Ops) : 0.0;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

} // namespace

const char *perfbench::datasetShort(int I) { return kShort[I]; }
const char *perfbench::datasetName(int I) { return kName[I]; }

int perfbench::datasetSlot(const std::string &Name) {
  for (int I = 0; I < kNumDatasets; ++I)
    if (Name == kName[I])
      return I;
  return -1;
}

void perfbench::measureTiling(const graph::PreparedGraph &G, int TileBits,
                              DatasetLayers &D, Tracer &T,
                              const std::string &Sfx) {
  const graph::EdgeList &E = G.edges();
  ScopedSpan Sp(T, "tileByDestination:" + Sfx, "inspector", 0, 0);
  inspector::TilingResult Tl = inspector::tileByDestination(
      E.Dst.data(), E.numEdges(), E.NumNodes, TileBits);
  D.TilingMs = Sp.close() * 1e3;
  ScopedSpan Cp(T, "classifyTiling:" + Sfx, "pattern", 0, 0);
  pattern::PatternResult Pr = pattern::classifyTiling(Tl, E.Dst.data());
  D.ClassifyMs = Cp.close() * 1e3;
  const int64_t General =
      Pr.Counts[static_cast<int>(pattern::TileClass::General)];
  D.SpecializedShare =
      ratio(static_cast<double>(Pr.numTiles() - General),
            static_cast<double>(Pr.numTiles()));
  D.PreparedMb = static_cast<double>(G.approxBytes()) / (1 << 20);
}

void KernelTally::add(double Prep, double Kernel, double Upd, double SimdUtil,
                      double MeanD1, int Lanes) {
  ++Ops;
  PrepS += Prep;
  KernelS += Kernel;
  Updates += Upd;
  const double V = Upd / (Lanes * std::max(SimdUtil, 1e-9));
  Vectors += V;
  // The paper's per-vector instruction model at the measured D1.  The run
  // facade does not report D2, so Algorithm 2 runs are charged the
  // Algorithm 1 figure at the same D1: an upper bound, since Algorithm 2
  // is chosen when it is cheaper.
  ModelInstr += V * core::alg1Cost(MeanD1);
  SimdW += SimdUtil * Upd;
  D1W += MeanD1 * Upd;
}

void perfbench::addLayerMetrics(Outcome &Out, const LayerFigures &L) {
  for (int I = 0; I < kNumDatasets; ++I) {
    const DatasetLayers &D = L.Ds[I];
    const std::string Sfx = kShort[I];
    Out.add("graph.load_ms." + Sfx, D.LoadMs, "ms");
    Out.add("graph.csr_ms." + Sfx, D.CsrMs, "ms");
    Out.add("graph.prepared_mb." + Sfx, D.PreparedMb, "MB");
    Out.add("inspector.tiling_ms." + Sfx, D.TilingMs, "ms");
    Out.add("pattern.classify_ms." + Sfx, D.ClassifyMs, "ms");
    Out.add("pattern.specialized_share." + Sfx, D.SpecializedShare, "share");
  }
  const KernelTally &K = L.Kernel;
  Out.add("apps.prep_ms.per_op", perOp(K.PrepS, K.Ops) * 1e3, "ms");
  Out.add("kernel.ms.per_op", perOp(K.KernelS, K.Ops) * 1e3, "ms");
  Out.add("kernel.updates.per_op", perOp(K.Updates, K.Ops), "count");
  Out.add("kernel.ns_per_update", ratio(K.KernelS, K.Updates) * 1e9, "ns");
  Out.add("kernel.simd_util", ratio(K.SimdW, K.Updates), "share");
  Out.add("kernel.mean_d1", ratio(K.D1W, K.Updates), "lanes");
  Out.add("kernel.ns_per_model_instr", ratio(K.KernelS, K.ModelInstr) * 1e9,
          "ns");
  Out.add("service.queue_share", L.Split.share(L.Split.QueueS), "share");
  Out.add("service.load_share", L.Split.share(L.Split.LoadS), "share");
  Out.add("service.busy_share", L.BusyShare, "share");
  Out.add("cache.hit_share", L.CacheHitShare, "share");
  Out.add("cache.evictions", L.CacheEvictions, "count");
  Out.add("cache.coalesced", L.CacheCoalesced, "count");
  Out.add("sched.shed", L.Shed, "count");
  Out.add("sched.rejected", L.Rejected, "count");
  Out.add("net.overhead_share", L.Split.share(L.Split.NetS), "share");
  Out.add("net.batch_size_mean", L.BatchSizeMean, "count");
  Out.add("net.replies_dropped", L.RepliesDropped, "count");
  Out.add("gen.late_share", L.Split.share(L.Split.LateS), "share");
  Out.add("gen.identical_inflight_share", L.IdenticalShare, "share");
  addRusage(Out, L.Os);
  Out.add("trace.overhead_share", L.TraceOverhead, "share");
}

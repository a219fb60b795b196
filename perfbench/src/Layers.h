//===- perfbench/src/Layers.h - Per-layer metrics of a traced run -*- C++ -*-===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer figures a traced run reports.  Every workload prints the
/// same names, in the same order, from one LayerFigures: each workload
/// fills in what its layers did, and a layer a workload does not go
/// through keeps its zero (paper-batch calls cfv::run in process, so its
/// service and net figures are 0: nothing is queued, cached or sent).
/// Those figures are counts and shares; every time a traced run reports
/// is measured on every workload.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PERFBENCH_LAYERS_H
#define CFV_PERFBENCH_LAYERS_H

#include "Common.h"
#include "Trace.h"

#include <string>

namespace cfv::graph {
class PreparedGraph;
} // namespace cfv::graph

namespace perfbench {

/// The three graph datasets every workload touches, in metric order.
constexpr int kNumDatasets = 3;
/// Metric suffix of dataset slot \p I ("higgs", "pokec", "amazon").
const char *datasetShort(int I);
/// graph::makeGraphDataset name of dataset slot \p I.
const char *datasetName(int I);
/// Slot of a graph::makeGraphDataset name, or -1.
int datasetSlot(const std::string &Name);

/// graph / inspector / pattern work on one dataset.
struct DatasetLayers {
  double LoadMs = 0, CsrMs = 0, PreparedMb = 0, TilingMs = 0, ClassifyMs = 0;
  /// Tiles the classifier put in a specialized (non-General) class.
  double SpecializedShare = 0;
};

/// Times the two public calls PreparedGraph::tiling makes on \p G's
/// edges -- inspector::tileByDestination, then pattern::classifyTiling on
/// its result -- so the one call splits into its two layers.  Fills
/// TilingMs, ClassifyMs, SpecializedShare and PreparedMb (\p G's
/// approxBytes now).
void measureTiling(const cfv::graph::PreparedGraph &G, int TileBits,
                   DatasetLayers &D, Tracer &T, const std::string &Sfx);

/// Kernel and prep work summed over a workload's runs: in-process jobs
/// (paper-batch) or served requests (serve-*).
struct KernelTally {
  int64_t Ops = 0;
  double PrepS = 0, KernelS = 0, Updates = 0;
  /// Vector passes (updates / (lanes x SIMD utilization)) and those passes
  /// weighted by the paper's Algorithm 1 cost 2 + 8*D1.
  double Vectors = 0, ModelInstr = 0;
  /// SIMD utilization and mean D1, weighted by updates.
  double SimdW = 0, D1W = 0;

  void add(double Prep, double Kernel, double Upd, double SimdUtil,
           double MeanD1, int Lanes);
};

/// Where the time of a served request went, summed over requests: the
/// share of due -> reply latency spent in each stage.  Shares, not
/// times, so a layer a workload does not reach reads 0 as a share.
struct LatencySplit {
  double LatencyS = 0, QueueS = 0, LoadS = 0, NetS = 0, LateS = 0;
  double share(double Part) const {
    return LatencyS > 0 ? Part / LatencyS : 0.0;
  }
};

struct LayerFigures {
  DatasetLayers Ds[kNumDatasets];
  KernelTally Kernel;
  LatencySplit Split;
  double BusyShare = 0;
  double CacheHitShare = 0, CacheEvictions = 0, CacheCoalesced = 0;
  double Shed = 0, Rejected = 0;
  double BatchSizeMean = 0, RepliesDropped = 0, IdenticalShare = 0;
  Rusage Os;
  double TraceOverhead = 0;
};

/// Adds every per-layer metric of \p L to \p Out, in BENCHMARK.json order.
void addLayerMetrics(Outcome &Out, const LayerFigures &L);

} // namespace perfbench

#endif // CFV_PERFBENCH_LAYERS_H

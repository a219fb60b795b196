//===- util/Stats.h - Runtime counters and statistics -----------*- C++ -*-===//
//
// Part of the cfv project (see AlignedAlloc.h for the project banner).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters used to reproduce the paper's reported metrics: the SIMD
/// utilization of the conflict-masking approach (Figures 8-12 annotate
/// "simd_util = ...%") and the average number of distinct conflicting
/// lanes D1/D2 that drives the Algorithm 1 / Algorithm 2 choice (§3.4).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_UTIL_STATS_H
#define CFV_UTIL_STATS_H

#ifndef CFV_OBS
#define CFV_OBS 1
#endif

#include <cstdint>

namespace cfv {

/// Histogram over lane counts 0..16 as a plain local array -- the hot
/// kernels bump a slot per vector pass without atomics or registry
/// traffic, and the run facade flushes the totals into the shared
/// observability registry once per run.  17 slots cover every quantity
/// the paper distributes over lanes: D1, D2, and useful lanes per pass
/// all live in [0, 16] for the 512-bit backends.
class LaneHistogram {
public:
  static constexpr unsigned kSlots = 17;

  void add(unsigned Lanes) { ++Counts[Lanes < kSlots ? Lanes : kSlots - 1]; }

  uint64_t count(unsigned Slot) const {
    return Slot < kSlots ? Counts[Slot] : 0;
  }

  uint64_t total() const {
    uint64_t Sum = 0;
    for (uint64_t C : Counts)
      Sum += C;
    return Sum;
  }

  void merge(const LaneHistogram &O) {
    for (unsigned I = 0; I < kSlots; ++I)
      Counts[I] += O.Counts[I];
  }

  void reset() {
    for (uint64_t &C : Counts)
      C = 0;
  }

private:
  uint64_t Counts[kSlots] = {};
};

/// Tracks SIMD utilization: the fraction of lane slots that carried useful
/// work over all vector passes executed.  The conflict-masking approach
/// re-runs a vector until all lanes commit, so its utilization is
/// (lanes committed) / (passes * width); in-vector reduction commits every
/// active lane in one pass.
class SimdUtilCounter {
public:
  void recordPass(unsigned UsefulLanes, unsigned Width) {
    Useful += UsefulLanes;
    Slots += Width;
#if CFV_OBS
    Lanes.add(UsefulLanes);
#endif
  }

  /// Utilization in [0, 1]; 1.0 when nothing was recorded.
  double utilization() const {
    return Slots == 0 ? 1.0 : static_cast<double>(Useful) /
                                  static_cast<double>(Slots);
  }

  uint64_t passes(unsigned Width) const { return Slots / Width; }

  /// Folds another counter in (used to combine per-worker counters after
  /// a parallel region; merge order does not affect the result).
  void merge(const SimdUtilCounter &O) {
    Useful += O.Useful;
    Slots += O.Slots;
#if CFV_OBS
    Lanes.merge(O.Lanes);
#endif
  }

  void reset() {
    Useful = Slots = 0;
#if CFV_OBS
    Lanes.reset();
#endif
  }

  /// Distribution of useful lanes per pass (empty when compiled out).
  const LaneHistogram &laneHistogram() const { return Lanes; }

private:
  uint64_t Useful = 0;
  uint64_t Slots = 0;
  LaneHistogram Lanes; // zero-cost empty shell when CFV_OBS=0
};

/// Incremental mean without storing samples.
class RunningMean {
public:
  void add(double X) {
    ++N;
    Mean += (X - Mean) / static_cast<double>(N);
  }

  double mean() const { return Mean; }
  uint64_t count() const { return N; }

  /// Count-weighted combine of two means (per-worker statistics are
  /// merged in thread-id order after a parallel region, keeping the
  /// result deterministic at a fixed thread count).
  void merge(const RunningMean &O) {
    if (O.N == 0)
      return;
    const uint64_t Total = N + O.N;
    Mean += (O.Mean - Mean) * (static_cast<double>(O.N) /
                               static_cast<double>(Total));
    N = Total;
  }

  void reset() {
    N = 0;
    Mean = 0.0;
  }

private:
  uint64_t N = 0;
  double Mean = 0.0;
};

/// RunningMean plus a lane-count distribution: the paper's D1/D2
/// statistics need both the mean (it drives the Algorithm 1/2 policy)
/// and the shape (an operator watching live traffic wants to see whether
/// "mean D1 = 1.2" is uniform light conflict or a bimodal mix).  Same
/// add/mean/count/merge surface as RunningMean so kernels can swap it in
/// without restructuring; the histogram side compiles to nothing under
/// CFV_OBS=0.
class ConflictCounter {
public:
  void add(unsigned Lanes) {
    Mean.add(static_cast<double>(Lanes));
#if CFV_OBS
    Hist.add(Lanes);
#endif
  }

  double mean() const { return Mean.mean(); }
  uint64_t count() const { return Mean.count(); }

  void merge(const ConflictCounter &O) {
    Mean.merge(O.Mean);
#if CFV_OBS
    Hist.merge(O.Hist);
#endif
  }

  void reset() {
    Mean.reset();
#if CFV_OBS
    Hist.reset();
#endif
  }

  const LaneHistogram &histogram() const { return Hist; }

private:
  RunningMean Mean;
  LaneHistogram Hist;
};

} // namespace cfv

#endif // CFV_UTIL_STATS_H

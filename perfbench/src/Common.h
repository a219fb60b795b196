//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the parsed command line, the ordered
/// metric sink the final JSON line is printed from, percentiles,
/// getrusage snapshots, peak RSS, and the checksum comparison that
/// decides whether an output is correct.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PERFBENCH_COMMON_H
#define CFV_PERFBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Traced = false;
  /// Chrome trace output path for --trace 1 ("" = none).
  std::string TraceOut;
};

/// One reported number.  The final JSON line prints them in insertion
/// order; the human report on stderr prints every one of them, including
/// the ones BENCHMARK.json does not list.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  /// Listed in BENCHMARK.json (printed in the JSON line); otherwise
  /// stderr only.
  bool Listed = true;
};

/// What a workload run hands back to Main.
struct Outcome {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Output checks that disagreed with the set-up reference (a subset of
  /// Failed); any mismatch fails the run.
  int64_t Mismatched = 0;
  /// False when the run cannot be trusted as a measurement (generator
  /// fell behind its schedule); the run then exits non-zero.
  bool Valid = true;
  std::string InvalidReason;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit,
           bool Listed = true) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit), Listed});
  }
};

/// Linear-interpolated percentile (\p Q in [0, 1]) of \p V (copied,
/// sorted).  0 for an empty sample.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// getrusage(RUSAGE_SELF) counters the benchmark reports as deltas.
struct Rusage {
  int64_t MinFlt = 0, MajFlt = 0, Nvcsw = 0, Nivcsw = 0;
  static Rusage now();
  Rusage operator-(const Rusage &O) const {
    return {MinFlt - O.MinFlt, MajFlt - O.MajFlt, Nvcsw - O.Nvcsw,
            Nivcsw - O.Nivcsw};
  }
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peakRssMb();

/// Adds the os.* deltas of \p D to \p Out.
void addRusage(Outcome &Out, const Rusage &D);

/// Whether two result digests agree: the relative 1e-9 tolerance
/// cfv_check's serve/chaos tiers apply to cfv::resultChecksum values.
bool digestsAgree(double A, double B);

/// \p V as the NDJSON wire renders a double ("%.9g"), parsed back: the
/// value a serve reply carries for a digest computed in process.
double wireRounded(double V);

/// Monotonic seconds (the clock every span and latency uses).
double nowSeconds();

} // namespace perfbench

#endif // CFV_PERFBENCH_COMMON_H

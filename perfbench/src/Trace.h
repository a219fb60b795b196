//===- perfbench/src/Trace.h - Benchmark-side span recorder -----*- C++ -*-===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from the benchmark's own code around each call into a
/// layer of the system (dataset load, CSR build, tiling, classification,
/// cfv::run, request send -> reply), plus child spans for the stage
/// times a result or reply reports (prep, kernel, queue, load).  Every
/// span carries its own id, its parent's id and the id of the request or
/// job it belongs to.  Spans stay in memory and are written as
/// chrome://tracing JSON when the run ends; a layer's self time is its
/// spans' durations minus the time their children cover.
///
/// A disabled tracer records nothing and costs one branch per call, so
/// the untraced runs that produce end-to-end numbers carry no spans.
///
/// Single-threaded: only the benchmark's main thread records spans (the
/// batch loop in paper-batch, the request generator in serve).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PERFBENCH_TRACE_H
#define CFV_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Whether spans are being recorded right now.  setActive() toggles
  /// recording inside a traced run, for the interleaved traced/untraced
  /// comparison that yields trace.overhead_share.
  bool active() const { return Enabled && Active; }
  void setActive(bool A) { Active = A; }

  /// Reserves a span id before the span ends, so children recorded
  /// first can name their parent; 0 when inactive.
  uint64_t reserve();

  /// Records a finished span [Start, Start + Dur) (monotonic seconds)
  /// under \p Id (0 reserves a fresh one) and returns the id; returns 0
  /// and records nothing when inactive.
  uint64_t record(std::string Name, const char *Layer, uint64_t Parent,
                  uint64_t Req, double Start, double Dur, uint64_t Id = 0);

  /// Writes every span as chrome://tracing JSON ("X" events, microsecond
  /// timestamps, args {id, parent, req}).  Returns false on I/O failure.
  bool writeChrome(const std::string &Path) const;

  /// Per-layer self time in seconds: each span's duration minus the
  /// durations of its direct children, summed by layer.
  std::map<std::string, double> selfSeconds() const;

  std::size_t size() const { return Spans.size(); }

private:
  struct Span {
    std::string Name;
    const char *Layer;
    uint64_t Id, Parent, Req;
    double Start, Dur;
  };
  const bool Enabled;
  bool Active = true;
  std::vector<Span> Spans;
  uint64_t NextId = 1;
};

/// Scoped span around a call: starts at construction, records at
/// destruction (or at close()).  Its id is reserved at construction, so
/// children recorded inside the scope name it as their parent via id().
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, const char *Layer, uint64_t Parent,
             uint64_t Req);
  ~ScopedSpan() { close(); }
  uint64_t id() const { return Id; }
  double start() const { return Start; }
  /// Ends the span now; later calls are no-ops.  Returns its duration.
  double close();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  std::string Name;
  const char *Layer;
  uint64_t Parent, Req, Id;
  double Start;
  bool Closed = false;
  double Dur = 0.0;
};

} // namespace perfbench

#endif // CFV_PERFBENCH_TRACE_H

//===- resilience/Fault.h - Deterministic fault injection -------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resilience layer's fault injector: a registry of named fault
/// points threaded through the layers that touch the outside world
/// (graph I/O, the dataset cache, the request scheduler, the parallel
/// engine, the serve front-end).  Each point evaluates a deterministic
/// per-seed schedule, so a chaos run that found a bug replays exactly
/// from its seed: the decision for the k-th evaluation of a point is a
/// pure function of (seed, point, k), independent of thread timing.
///
/// Schedules (one Rule per point):
///   - off          never fires (the default; an unarmed injector costs
///                  one relaxed atomic load per evaluation),
///   - always       fires on every evaluation,
///   - p=<prob>     fires each evaluation with probability p,
///   - nth=<k>      fires exactly once, on the k-th evaluation (1-based),
///   - burst=<n>@<k> fires on evaluations [k, k+n) (1-based).
///
/// Configuration comes from the CFV_FAULTS environment variable or the
/// cfv_serve --faults flag, as a comma-separated list of
/// "<point>:<schedule>" clauses, e.g.
///
///   CFV_FAULTS="io.read_error:p=0.01,cache.alloc_fail:nth=5"
///
/// Layering: util < obs < resilience < everything else -- any layer may
/// consult a fault point.  Compiling with -DCFV_FAULTS=OFF (CMake)
/// reduces fault::fire() to a constant false the optimizer deletes, so
/// production builds carry zero injection overhead.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_RESILIENCE_FAULT_H
#define CFV_RESILIENCE_FAULT_H

#ifndef CFV_FAULTS
#define CFV_FAULTS 1
#endif

#include "util/Status.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace cfv {
namespace fault {

/// Every named fault point in the system.  Adding one: extend the enum,
/// pointName(), and wire fault::fire(Point::...) at the injection site.
enum class Point : int {
  IoReadError,          ///< graph I/O read fails outright
  IoShortRead,          ///< graph I/O stops mid-file (truncated input)
  CacheAllocFail,       ///< dataset load hits memory pressure
  CacheCorruptArtifact, ///< loaded artifact fails its integrity check
  SchedWorkerStall,     ///< a scheduler worker stalls before its task
  KernelSlowTile,       ///< a kernel pass runs pathologically slowly
  ServeConnDrop,        ///< the TCP client vanishes mid-response
};
inline constexpr int kNumPoints = 7;

/// "io.read_error", "cache.alloc_fail", ... (the CFV_FAULTS spelling).
const char *pointName(Point P);

/// Parses a point name; unknown names are an InvalidArgument listing the
/// valid spellings.
Expected<Point> parsePoint(const std::string &Name);

/// One point's schedule.
struct Rule {
  enum class Mode { Off, Always, Probability, Nth, Burst };
  Mode M = Mode::Off;
  double P = 0.0;     ///< Probability mode: chance per evaluation
  uint64_t Nth = 0;   ///< Nth mode: the single 1-based hit that fires
  uint64_t Start = 0; ///< Burst mode: first 1-based hit that fires
  uint64_t Len = 0;   ///< Burst mode: number of consecutive hits
};

/// A full injector configuration: one rule per point plus the seed that
/// makes probability schedules deterministic.
struct Plan {
  Rule Rules[kNumPoints];
  uint64_t Seed = 0;

  bool anyArmed() const {
    for (const Rule &R : Rules)
      if (R.M != Rule::Mode::Off)
        return true;
    return false;
  }
};

/// Parses a CFV_FAULTS-style spec ("point:mode,point:mode") into a Plan.
/// An empty spec is a valid, fully-disarmed plan.
Expected<Plan> parsePlan(const std::string &Spec, uint64_t Seed);

#if CFV_FAULTS

/// The process-wide injector.  configure() swaps in a new plan and
/// resets the per-point evaluation counters; disarm() turns every point
/// off.  The first instance() call arms from the CFV_FAULTS environment
/// variable (seeded by CFV_SEED) so every tool picks up ambient faults
/// without plumbing.
class Injector {
public:
  static Injector &instance();

  void configure(const Plan &P);
  void disarm();

  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Evaluates \p P's schedule; true means the caller must inject its
  /// failure now.  Hot path when disarmed: one relaxed load.
  bool shouldFire(Point P);

  /// Monotonic counters since the last configure(): schedule
  /// evaluations and actual fires of \p P.
  uint64_t evaluated(Point P) const;
  uint64_t fired(Point P) const;
  /// Total fires across every point since the last configure().
  uint64_t totalFired() const;

  Injector(const Injector &) = delete;
  Injector &operator=(const Injector &) = delete;

private:
  Injector();

  std::atomic<bool> Armed{false};
  struct PointState {
    Rule R;
    std::atomic<uint64_t> Evals{0};
    std::atomic<uint64_t> Fires{0};
  };
  PointState Points[kNumPoints];
  uint64_t Seed = 0;
};

/// The injection-site entry point: true when the fault at \p P must be
/// injected now.  Disarmed cost is one relaxed atomic load.
inline bool fire(Point P) {
  Injector &I = Injector::instance();
  if (!I.armed())
    return false;
  return I.shouldFire(P);
}

#else // !CFV_FAULTS

// Compiled-out stubs: fire() is a constant the optimizer deletes, and
// the Injector keeps its surface so tools build unconditionally (a
// configure() on a compiled-out build is a silent no-op).

class Injector {
public:
  static Injector &instance() {
    static Injector I;
    return I;
  }
  void configure(const Plan &) {}
  void disarm() {}
  bool armed() const { return false; }
  bool shouldFire(Point) { return false; }
  uint64_t evaluated(Point) const { return 0; }
  uint64_t fired(Point) const { return 0; }
  uint64_t totalFired() const { return 0; }
};

inline bool fire(Point) { return false; }

#endif // CFV_FAULTS

} // namespace fault
} // namespace cfv

#endif // CFV_RESILIENCE_FAULT_H

//===- resilience/Fault.cpp - Deterministic fault injection ---------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "resilience/Fault.h"

#include "obs/Metrics.h"
#include "util/Env.h"

#include <cstdlib>

namespace cfv {
namespace fault {

const char *pointName(Point P) {
  switch (P) {
  case Point::IoReadError:
    return "io.read_error";
  case Point::IoShortRead:
    return "io.short_read";
  case Point::CacheAllocFail:
    return "cache.alloc_fail";
  case Point::CacheCorruptArtifact:
    return "cache.corrupt_artifact";
  case Point::SchedWorkerStall:
    return "sched.worker_stall";
  case Point::KernelSlowTile:
    return "kernel.slow_tile";
  case Point::ServeConnDrop:
    return "serve.conn_drop";
  }
  return "unknown";
}

Expected<Point> parsePoint(const std::string &Name) {
  for (int I = 0; I < kNumPoints; ++I) {
    const Point P = static_cast<Point>(I);
    if (Name == pointName(P))
      return P;
  }
  std::string Valid;
  for (int I = 0; I < kNumPoints; ++I) {
    if (I)
      Valid += ", ";
    Valid += pointName(static_cast<Point>(I));
  }
  return Status::error(ErrorCode::InvalidArgument,
                       "unknown fault point '" + Name + "' (valid: " + Valid +
                           ")");
}

namespace {

/// splitmix64 finalizer: a full-avalanche mix of one 64-bit word.  The
/// firing decision for hit k of point p under seed s hashes (s, p, k)
/// through this, so it is a pure function of the schedule -- identical
/// across runs, threads, and evaluation interleavings.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

Expected<Rule> parseRule(const std::string &Clause, const std::string &Spec) {
  Rule R;
  if (Clause == "always") {
    R.M = Rule::Mode::Always;
    return R;
  }
  if (Clause == "off") {
    R.M = Rule::Mode::Off;
    return R;
  }
  const auto Eq = Clause.find('=');
  const std::string Key = Clause.substr(0, Eq);
  const std::string Val = Eq == std::string::npos ? "" : Clause.substr(Eq + 1);
  auto bad = [&](const std::string &Why) -> Status {
    return Status::error(ErrorCode::InvalidArgument,
                         "bad fault schedule '" + Clause + "' in '" + Spec +
                             "': " + Why);
  };
  if (Key == "p") {
    char *End = nullptr;
    const double P = std::strtod(Val.c_str(), &End);
    if (Val.empty() || *End != '\0' || P < 0.0 || P > 1.0)
      return bad("p wants a probability in [0, 1]");
    R.M = Rule::Mode::Probability;
    R.P = P;
    return R;
  }
  if (Key == "nth") {
    char *End = nullptr;
    const unsigned long long N = std::strtoull(Val.c_str(), &End, 10);
    if (Val.empty() || *End != '\0' || N == 0)
      return bad("nth wants a 1-based hit index");
    R.M = Rule::Mode::Nth;
    R.Nth = N;
    return R;
  }
  if (Key == "burst") {
    // burst=<len>@<start>, e.g. burst=10@100 fires hits 100..109.
    const auto At = Val.find('@');
    if (At == std::string::npos)
      return bad("burst wants <len>@<start>");
    char *End = nullptr;
    const unsigned long long Len = std::strtoull(Val.c_str(), &End, 10);
    if (End != Val.c_str() + At || Len == 0)
      return bad("burst wants a positive length");
    const std::string StartText = Val.substr(At + 1);
    const unsigned long long Start = std::strtoull(StartText.c_str(), &End, 10);
    if (StartText.empty() || *End != '\0' || Start == 0)
      return bad("burst wants a 1-based start hit");
    R.M = Rule::Mode::Burst;
    R.Start = Start;
    R.Len = Len;
    return R;
  }
  return bad("schedule wants always | off | p=<prob> | nth=<k> | "
             "burst=<n>@<k>");
}

} // namespace

Expected<Plan> parsePlan(const std::string &Spec, uint64_t Seed) {
  Plan Result;
  Result.Seed = Seed;
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    const std::string Item = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Item.empty())
      continue;
    const auto Colon = Item.find(':');
    if (Colon == std::string::npos)
      return Status::error(ErrorCode::InvalidArgument,
                           "bad fault clause '" + Item + "' in '" + Spec +
                               "': want <point>:<schedule>");
    const Expected<Point> P = parsePoint(Item.substr(0, Colon));
    if (!P.ok())
      return P.status();
    const Expected<Rule> R = parseRule(Item.substr(Colon + 1), Spec);
    if (!R.ok())
      return R.status();
    Result.Rules[static_cast<int>(*P)] = *R;
  }
  return Result;
}

#if CFV_FAULTS

Injector &Injector::instance() {
  static Injector I;
  return I;
}

Injector::Injector() {
  // Ambient arming: CFV_FAULTS in the environment configures every tool
  // without plumbing.  A malformed spec is a loud note and a disarmed
  // injector -- never a partially-armed one.
  const char *Spec = std::getenv("CFV_FAULTS");
  if (!Spec || !*Spec)
    return;
  const uint64_t Seed = static_cast<uint64_t>(
      env::intVar("CFV_SEED", 0xCAFEBABELL, INT64_MIN, INT64_MAX));
  const Expected<Plan> P = parsePlan(Spec, Seed);
  if (!P.ok()) {
    std::fprintf(stderr, "cfv: ignoring CFV_FAULTS: %s\n",
                 P.status().message().c_str());
    return;
  }
  configure(*P);
}

void Injector::configure(const Plan &P) {
  // Disarm first so racing shouldFire() calls see a consistent
  // (disarmed) view while the rules swap.
  Armed.store(false, std::memory_order_release);
  Seed = P.Seed;
  for (int I = 0; I < kNumPoints; ++I) {
    Points[I].R = P.Rules[I];
    Points[I].Evals.store(0, std::memory_order_relaxed);
    Points[I].Fires.store(0, std::memory_order_relaxed);
  }
  Armed.store(P.anyArmed(), std::memory_order_release);
}

void Injector::disarm() { Armed.store(false, std::memory_order_release); }

bool Injector::shouldFire(Point P) {
  PointState &S = Points[static_cast<int>(P)];
  const Rule &R = S.R;
  if (R.M == Rule::Mode::Off)
    return false;
  // 1-based hit index: the k-th evaluation of this point process-wide.
  const uint64_t Hit = S.Evals.fetch_add(1, std::memory_order_relaxed) + 1;
  bool Fire = false;
  switch (R.M) {
  case Rule::Mode::Off:
    break;
  case Rule::Mode::Always:
    Fire = true;
    break;
  case Rule::Mode::Probability: {
    // Deterministic coin: hash (seed, point, hit) to a uniform in
    // [0, 1).  Same schedule, same decisions, regardless of timing.
    const uint64_t H =
        mix64(Seed ^ (static_cast<uint64_t>(P) << 56) ^ (Hit * 0x9e37ULL));
    const double U =
        static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
    Fire = U < R.P;
    break;
  }
  case Rule::Mode::Nth:
    Fire = Hit == R.Nth;
    break;
  case Rule::Mode::Burst:
    Fire = Hit >= R.Start && Hit < R.Start + R.Len;
    break;
  }
  if (Fire) {
    S.Fires.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter &Injected = obs::MetricsRegistry::instance().counter(
        "cfv_faults_injected_total", "",
        "Faults injected by the resilience fault injector");
    Injected.inc();
  }
  return Fire;
}

uint64_t Injector::evaluated(Point P) const {
  return Points[static_cast<int>(P)].Evals.load(std::memory_order_relaxed);
}

uint64_t Injector::fired(Point P) const {
  return Points[static_cast<int>(P)].Fires.load(std::memory_order_relaxed);
}

uint64_t Injector::totalFired() const {
  uint64_t Sum = 0;
  for (const PointState &S : Points)
    Sum += S.Fires.load(std::memory_order_relaxed);
  return Sum;
}

#endif // CFV_FAULTS

} // namespace fault
} // namespace cfv

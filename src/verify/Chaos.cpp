//===-- verify/Chaos.cpp - Fault-schedule chaos tier ----------------------===//

#include "verify/Chaos.h"

#include "graph/Generators.h"
#include "resilience/Fault.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "util/Clock.h"
#include "util/Prng.h"
#include "verify/ServeFuzz.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cfv {
namespace verify {

namespace {

uint64_t hashString(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// The forced schedule for the round's featured point.  The two points
/// that burn wall time when they fire (worker stalls eat 1.5x the
/// watchdog budget, slow tiles sleep) get lower rates so a round stays
/// seconds, not minutes.
fault::Rule forcedRule(fault::Point P) {
  fault::Rule R;
  R.M = fault::Rule::Mode::Probability;
  switch (P) {
  case fault::Point::SchedWorkerStall:
    R.P = 0.03;
    break;
  case fault::Point::KernelSlowTile:
    R.P = 0.10;
    break;
  default:
    R.P = 0.25;
    break;
  }
  return R;
}

/// Every fault round arms ALL points: the featured one at its forced
/// rate, the rest as low-probability background noise, so faults
/// compose instead of arriving one at a time.
fault::Plan roundPlan(uint64_t Seed, int Round) {
  fault::Plan P;
  P.Seed = Seed + static_cast<uint64_t>(Round) * 0x9E3779B9ULL;
  const int Featured = (Round - 1) % fault::kNumPoints;
  for (int I = 0; I < fault::kNumPoints; ++I) {
    if (I == Featured) {
      P.Rules[I] = forcedRule(static_cast<fault::Point>(I));
    } else {
      P.Rules[I].M = fault::Rule::Mode::Probability;
      P.Rules[I].P = static_cast<fault::Point>(I) ==
                             fault::Point::SchedWorkerStall
                         ? 0.01
                         : 0.02;
    }
  }
  return P;
}

/// The chaos dataset loader: fabricated graphs like the fuzzer's, but it
/// consults the graph-I/O fault points itself -- an injected loader
/// bypasses readSnapEdgeList, so the io.* schedules would otherwise
/// never be reachable from this tier.
service::DatasetCache::Loader chaosLoader() {
  return [](const service::DatasetKey &K) -> Expected<graph::EdgeList> {
    if (fault::fire(fault::Point::IoReadError))
      return Status::error(ErrorCode::IoError,
                           "chaos loader: injected read error on '" +
                               K.Source + "'");
    if (fault::fire(fault::Point::IoShortRead))
      return Status::error(ErrorCode::IoError,
                           "chaos loader: injected short read on '" +
                               K.Source + "'");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    if (K.Source.find("missing") != std::string::npos)
      return Status::error(ErrorCode::NotFound,
                           "chaos loader: no dataset '" + K.Source + "'");
    const uint64_t H = hashString(K.Source);
    graph::EdgeList G = graph::genUniform(4, 40 + H % 80, H);
    if (K.Weighted && !G.isWeighted()) {
      G.Weight.resize(G.Src.size());
      Xoshiro256 WRng(K.WeightSeed);
      for (auto &W : G.Weight)
        W = 1.0f + WRng.nextFloat() * 63.0f;
    }
    return G;
  };
}

bool close(double A, double B) {
  return std::fabs(A - B) <=
         1e-9 * std::max(1.0, std::max(std::fabs(A), std::fabs(B)));
}

} // namespace

Expected<ChaosStats> runChaos(const ChaosOptions &O) {
  ChaosStats St;
  // Golden checksums: signature -> checksum from the fault-free round.
  // The signature pins everything that legitimately changes the answer
  // (the verbatim request line plus the concrete version / thread count /
  // iteration count that actually ran), so two entries with equal
  // signatures MUST agree.
  std::map<std::string, double> Golden;

  const double T0 = monotonicSeconds();
  const double Budget = O.Minutes * 60.0;
  fault::Injector &Inj = fault::Injector::instance();

  int Round = 0;
  while (true) {
    if (Round == 0) {
      Inj.disarm(); // golden round: ambient CFV_FAULTS must not leak in
    } else if (Budget > 0.0 ? monotonicSeconds() - T0 >= Budget
                            : Round > O.Rounds) {
      break;
    } else {
      Inj.configure(roundPlan(O.Seed, Round));
    }
    const std::string Armed =
        Round == 0
            ? "none"
            : std::string(fault::pointName(
                  static_cast<fault::Point>((Round - 1) % fault::kNumPoints)));

    auto violation = [&](const std::string &What, const std::string &Line) {
      Inj.disarm();
      return Status::error(ErrorCode::Unavailable,
                           "chaos invariant violated (round " +
                               std::to_string(Round) + ", featured fault " +
                               Armed + ", seed " + std::to_string(O.Seed) +
                               "): " + What + " | line: " + Line);
    };

    service::Service::Config C;
    C.QueueDepth = O.QueueDepth;
    C.Workers = O.Workers;
    C.ShedQueuePct = 75; // shedding is part of the surface under test
    C.ShedLatencyMs = 0.0;
    C.WatchdogMs = O.WatchdogMs;
    C.Loader = chaosLoader();
    service::Service Svc(C);

    // Identical traffic every round: the stream is a pure function of the
    // run seed, so only the armed fault schedule differs from the golden
    // round and any divergence in an Ok answer is the fault's doing.
    Xoshiro256 Rng(O.Seed ^ 0xC4A05C4A05ULL);
    std::vector<std::pair<std::string, std::future<service::ServeResponse>>>
        Pending;

    auto reapOne = [&]() -> Status {
      auto Front = std::move(Pending.front());
      Pending.erase(Pending.begin());
      // The hang bound: a lost reply (promise dropped, wedged worker the
      // watchdog missed) surfaces as a timeout here instead of blocking
      // the harness forever.
      if (Front.second.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready)
        return violation("request did not resolve within 30s (hang)",
                         Front.first);
      const service::ServeResponse R = Front.second.get();
      const Expected<json::Value> Parsed = json::parse(R.toJson());
      if (!Parsed.ok())
        return violation("response does not round-trip through json::parse: " +
                             R.toJson(),
                         Front.first);
      if (!R.Ok) {
        ++St.Failed;
        if (R.Error.ok())
          return violation("failed response carries an Ok status: " +
                               R.toJson(),
                           Front.first);
        return Status();
      }
      ++St.Ok;
      if (R.TimedOut)
        return Status();
      // serve.conn_drop models the client vanishing after the response
      // was computed: the reply is consumed and discarded -- cfv_serve's
      // client_gone path -- so the books must balance without it.
      if (fault::fire(fault::Point::ServeConnDrop))
        return Status();
      const std::string Sig = Front.first + "|" + R.Version + "|" +
                              std::to_string(R.Threads) + "|" +
                              std::to_string(R.Iterations);
      if (Round == 0) {
        Golden.emplace(Sig, R.Checksum);
      } else {
        const auto It = Golden.find(Sig);
        if (It != Golden.end()) {
          ++St.ChecksumsChecked;
          if (!close(It->second, R.Checksum))
            return violation("Ok response diverges from the golden round: "
                             "checksum " +
                                 std::to_string(R.Checksum) + " != golden " +
                                 std::to_string(It->second),
                             Front.first);
        }
      }
      return Status();
    };

    for (int64_t I = 0; I < O.LinesPerRound; ++I) {
      std::string Line;
      const uint32_t Roll = Rng.nextBounded(20);
      if (Roll < 12)
        Line = fuzzValidLine(Rng, I);
      else if (Roll < 17)
        Line = fuzzMutateLine(fuzzValidLine(Rng, I), Rng);
      else if (Roll < 19) {
        static const char *Cmds[] = {"{\"cmd\":\"stats\"}",
                                     "{\"cmd\":\"metrics\"}", "GET /metrics"};
        Line = Cmds[Rng.nextBounded(3)];
      } else {
        Line.resize(Rng.nextBounded(48));
        for (auto &Ch : Line)
          Ch = static_cast<char>(Rng.nextBounded(256));
      }
      ++St.Lines;

      const service::ClassifiedLine CL = service::classifyLine(Line);
      if (CL.Kind == service::LineKind::Request) {
        ++St.Requests;
        Pending.emplace_back(Line, Svc.submit(CL.Request));
      } else if (CL.Kind == service::LineKind::Malformed ||
                 CL.Kind == service::LineKind::UnknownCmd ||
                 CL.Kind == service::LineKind::BadRequest) {
        if (CL.Error.ok())
          return violation("rejected line without a structured error", Line);
      }

      while (Pending.size() > static_cast<size_t>(2 * O.QueueDepth))
        if (Status S = reapOne(); !S.ok())
          return S;
    }

    while (!Pending.empty())
      if (Status S = reapOne(); !S.ok())
        return S;
    Svc.drain();

    // Exactly-one-reply bookkeeping: everything admitted completed, and
    // nothing is still queued behind a drained barrier.
    const service::RequestScheduler::Stats Q = Svc.schedulerStats();
    if (Q.Queued != 0)
      return violation("requests still queued after drain", "");
    if (Q.Submitted != Q.Completed)
      return violation("scheduler books do not balance: submitted " +
                           std::to_string(Q.Submitted) + " != completed " +
                           std::to_string(Q.Completed),
                       "");
    St.Shed += Q.Shed;
    St.WatchdogTrips += Q.WatchdogTrips;
    St.FaultsInjected += static_cast<int64_t>(Inj.totalFired());
    if (!O.Quiet)
      std::fprintf(stderr,
                   "cfv_check: chaos round %d (featured %s) ok: %lld fired, "
                   "%lld shed, %lld watchdog trips (%.1fs)\n",
                   Round, Armed.c_str(),
                   static_cast<long long>(Inj.totalFired()),
                   static_cast<long long>(Q.Shed),
                   static_cast<long long>(Q.WatchdogTrips),
                   monotonicSeconds() - T0);
    if (Round > 0)
      ++St.Rounds;
    ++Round;
  }

  Inj.disarm();
  return St;
}

} // namespace verify
} // namespace cfv

//===- perfbench/src/Serve.cpp - The serve-warm workload -----------------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// An open loop against the network front-end, all in one process: a
// service::Service with two workers behind a net::Server (default
// config) on a loopback port, and one generator thread -- this one --
// that sends seeded Poisson arrivals over two connections and reads the
// id-matched replies with ppoll.  Latency runs from each request's due
// time to its reply, so a stall is charged to every request it delays;
// how late the generator itself sent is reported as gen.late_ms.
//
// Busy threads: generator, server loop, two scheduler workers (4).
//
// Every reply's digest is compared with an in-process cfv::run of the
// same request made during set-up, rounded as the wire renders it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"

#include "core/Api.h"
#include "graph/Datasets.h"
#include "graph/Prepared.h"
#include "net/Server.h"
#include "service/Json.h"
#include "service/Service.h"
#include "util/Prng.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cfv;
using namespace perfbench;

namespace {

constexpr int kWorkers = 2;
constexpr int kConns = 2;
/// Set-up repetitions behind setup_s (their median).  Set-ups take
/// ~0.15 s; on a 4-vCPU VM the first 5-6 after the measured phases ran at
/// half speed in most runs, so 15 keep that spell below the median.
constexpr int kSetupRepeats = 15;
/// Reply latency limits behind slo_share (also in BENCHMARK.json).
constexpr double kWarmSloMs = 50.0;
/// serve-warm's two fixed rates, about 30% and 50% of the 2-worker
/// capacity on the warm mix, measured as rate / service.busy_share from a
/// traced run (see perfbench/README.md).
constexpr double kLightRps = 70.0;
constexpr double kHeavyRps = 120.0;
/// A run whose generator sent more than 1% of its requests later than
/// this behind schedule is not a measurement of the server.  The limit
/// sits above the scheduling jitter of a small VM (vCPU stalls of up to
/// ~10 ms even when idle) and below the latency limit.
constexpr double kLateLimitMs = 20.0;
/// In a traced run, requests record spans in alternate blocks of this
/// many sends, so traced and untraced requests share both connections and
/// interleave in time; their latencies give trace.overhead_share.
constexpr std::size_t kTraceBlock = 10;
/// The generator busy-polls this close to a due send instead of sleeping.
constexpr double kSpinMs = 2.0;
/// Replies still missing this long after the last send count as failed.
constexpr double kDrainSeconds = 30.0;
/// The service's tiling block size (PageRankOptions default).
constexpr int kTileBits = 16;

struct KeySpec {
  std::string App;
  std::string Dataset; ///< graph::makeGraphDataset name
  std::string Short;   ///< metric / log label
  double Scale;
  int Iters;
  int32_t Source;
  double Weight; ///< popularity (unnormalized)
  double Reference = 0.0; ///< wire-rounded digest from set-up
};

/// Zipf(s) popularity over \p Keys in listed order.
void zipf(std::vector<KeySpec> &Keys, double S) {
  for (std::size_t I = 0; I < Keys.size(); ++I)
    Keys[I].Weight = 1.0 / std::pow(static_cast<double>(I + 1), S);
}

/// About 8 (app, dataset) keys at scale 0.1, most popular first.
std::vector<KeySpec> warmKeys() {
  std::vector<KeySpec> K = {
      {"pagerank", "higgs-twitter-sim", "pagerank.higgs", 0.1, 10, 0, 0},
      {"sssp", "higgs-twitter-sim", "sssp.higgs", 0.1, 0, 0, 0},
      {"pagerank", "soc-pokec-sim", "pagerank.pokec", 0.1, 10, 0, 0},
      {"bfs", "amazon0312-sim", "bfs.amazon", 0.1, 0, 0, 0},
      {"spmv", "higgs-twitter-sim", "spmv.higgs", 0.1, 10, 0, 0},
      {"wcc", "soc-pokec-sim", "wcc.pokec", 0.1, 0, 0, 0},
      {"pagerank", "amazon0312-sim", "pagerank.amazon", 0.1, 10, 0, 0},
      {"sswp", "soc-pokec-sim", "sswp.pokec", 0.1, 0, 0, 0},
  };
  zipf(K, 1.0);
  return K;
}

service::ServeRequest toRequest(const KeySpec &K) {
  service::ServeRequest R;
  R.App = K.App;
  R.Dataset = K.Dataset;
  R.Scale = K.Scale;
  R.Iters = K.Iters;
  R.Threads = 1;
  R.Source = K.Source;
  return R;
}

std::string requestLine(const KeySpec &K, uint64_t Id) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"id\":\"r%llu\",\"app\":\"%s\",\"dataset\":\"%s\","
                "\"scale\":%g,\"iters\":%d,\"threads\":1,\"source\":%d}\n",
                static_cast<unsigned long long>(Id), K.App.c_str(),
                K.Dataset.c_str(), K.Scale, K.Iters, K.Source);
  return Buf;
}

/// The reference digest of each key: cfv::run in process on a freshly
/// loaded PreparedGraph, exactly as the service would run it.  One cache
/// entry's graph is alive at a time, so this pass stays below the served
/// cache in memory and does not set the process's peak RSS.  With \p L
/// (traced runs), also fills each dataset's graph, inspector and pattern
/// figures, from its weighted entry when it has two.
Status computeReferences(std::vector<KeySpec> &Keys, LayerFigures *L,
                         Tracer &T) {
  std::map<std::string, std::vector<KeySpec *>> Entries;
  for (KeySpec &K : Keys) {
    const service::DatasetKey DK =
        service::Service::datasetKeyFor(toRequest(K));
    Entries[K.Dataset + "@" + std::to_string(K.Scale) +
            (DK.Weighted ? "w" : "")]
        .push_back(&K);
  }
  for (const auto &E : Entries) {
    const KeySpec &First = *E.second.front();
    const double T0 = nowSeconds();
    Expected<graph::Dataset> D = graph::makeGraphDataset(
        First.Dataset, First.Scale,
        service::Service::datasetKeyFor(toRequest(First)).Weighted);
    if (!D.ok())
      return D.status();
    const double T1 = nowSeconds();
    graph::PreparedGraph G(std::move(D->Edges));
    G.csr();
    const double T2 = nowSeconds();
    for (KeySpec *K : E.second) {
      AppRequest Run;
      Expected<AppId> App = parseAppId(K->App);
      if (!App.ok())
        return App.status();
      Run.App = *App;
      Run.Prepared = &G;
      Run.Source = K->Source;
      Run.Options.Threads = 1;
      if (K->Iters > 0)
        Run.Options.MaxIterations = K->Iters;
      Expected<AppResult> Res = cfv::run(Run);
      if (!Res.ok())
        return Res.status();
      K->Reference = wireRounded(resultChecksum(*Res));
    }
    const int Slot = datasetSlot(First.Dataset);
    if (L && Slot >= 0) {
      DatasetLayers &DL = L->Ds[Slot];
      DL.LoadMs = (T1 - T0) * 1e3;
      DL.CsrMs = (T2 - T1) * 1e3;
      measureTiling(G, kTileBits, DL, T, datasetShort(Slot));
    }
  }
  return Status();
}

/// One request's life, as the generator sees it.
struct Sent {
  std::size_t Key = 0;
  double Due = 0, SentAt = 0, RecvAt = 0;
  bool Replied = false, Ok = false, Traced = false;
  double Queue = 0, Load = 0, Prep = 0, Kernel = 0;
  double Updates = 0, SimdUtil = 0, MeanD1 = 0;
  int Lanes = 16;
  bool IdenticalInFlight = false;
};

/// What one phase of the open loop measured.
struct PhaseResult {
  std::string Name;
  double Rps = 0, Seconds = 0, SloMs = 0;
  std::vector<Sent> Reqs;
  int64_t Failed = 0, Mismatched = 0;

  /// Latencies (due -> reply) of the OK replies.
  std::vector<double> latMs() const {
    std::vector<double> V;
    for (const Sent &S : Reqs)
      if (S.Ok)
        V.push_back((S.RecvAt - S.Due) * 1e3);
    return V;
  }
  /// Share of requests answered OK within the latency limit.
  double sloShare() const {
    int64_t Met = 0;
    for (const Sent &S : Reqs)
      Met += S.Ok && (S.RecvAt - S.Due) * 1e3 <= SloMs;
    return Reqs.empty() ? 0.0
                        : static_cast<double>(Met) /
                              static_cast<double>(Reqs.size());
  }
  /// OK replies per second, from the first due time to the last reply:
  /// a backlog that outlives the schedule stretches the window.
  double okPerSecond() const {
    int64_t Ok = 0;
    double Last = 0;
    for (const Sent &S : Reqs) {
      Ok += S.Ok;
      Last = std::max(Last, S.RecvAt);
    }
    const double Span = Reqs.empty() ? 0.0 : Last - Reqs.front().Due;
    return Span > 0 ? static_cast<double>(Ok) / Span : 0.0;
  }
  template <typename F> std::vector<double> field(F Get) const {
    std::vector<double> V;
    for (const Sent &S : Reqs)
      if (S.Ok)
        V.push_back(Get(S));
    return V;
  }
  std::vector<double> lateMs() const {
    std::vector<double> V;
    for (const Sent &S : Reqs)
      V.push_back((S.SentAt - S.Due) * 1e3);
    return V;
  }
};

/// The in-process server plus the generator's connections.
class Harness {
public:
  Harness() {
    service::Service::Config SC;
    SC.Workers = kWorkers;
    Svc = std::make_unique<service::Service>(SC);
    net::Server::Config NC;
    NC.ShouldDrain = [this] { return Stop.load(); };
    Srv = std::make_unique<net::Server>(*Svc, NC);
  }
  ~Harness() { shutdown(); }

  Status start() {
    Status L = Srv->listen();
    if (!L.ok())
      return L;
    Loop = std::thread([this] { Srv->run(); });
    for (int I = 0; I < kConns; ++I) {
      const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (Fd < 0)
        return Status::error(ErrorCode::IoError, "socket failed");
      Fds.push_back(Fd);
      sockaddr_in A{};
      A.sin_family = AF_INET;
      A.sin_port = htons(static_cast<uint16_t>(Srv->boundPort()));
      A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0)
        return Status::error(ErrorCode::IoError,
                             std::string("connect: ") + std::strerror(errno));
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    RdBuf.assign(Fds.size(), std::string());
    return Status();
  }

  /// Closes the connections, drains the server and joins its loop.
  void shutdown() {
    for (int Fd : Fds)
      ::close(Fd);
    Fds.clear();
    Stop.store(true);
    if (Loop.joinable())
      Loop.join();
  }

  /// Runs one open-loop phase: \p Sched holds (due, key) pairs in due
  /// order; replies are matched by id and checked against the keys'
  /// reference digests.  Tracing, when on, alternates per block of
  /// kTraceBlock sends.
  void runPhase(PhaseResult &P, const std::vector<std::pair<double, std::size_t>>
                                    &Sched,
                const std::vector<KeySpec> &Keys, Tracer &T,
                uint64_t PhaseSpan) {
    const uint64_t Base = NextId;
    NextId += Sched.size();
    P.Reqs.assign(Sched.size(), Sent());
    std::vector<int> InFlightPerKey(Keys.size(), 0);
    std::size_t Next = 0, Outstanding = 0;
    double LastSend = nowSeconds();
    char Buf[1 << 16];
    while (Next < Sched.size() || Outstanding > 0) {
      double Now = nowSeconds();
      while (Next < Sched.size() && Now >= Sched[Next].first) {
        Sent &S = P.Reqs[Next];
        S.Key = Sched[Next].second;
        S.Due = Sched[Next].first;
        S.Traced = T.active() && Next / kTraceBlock % 2 == 0;
        S.IdenticalInFlight = InFlightPerKey[S.Key] > 0;
        const std::string Line = requestLine(Keys[S.Key], Base + Next);
        S.SentAt = nowSeconds();
        if (!sendAll(Fds[Next % Fds.size()], Line)) {
          ++P.Failed;
          S.Replied = true;
        } else {
          ++InFlightPerKey[S.Key];
          ++Outstanding;
        }
        LastSend = S.SentAt;
        ++Next;
        Now = nowSeconds();
      }
      if (Next >= Sched.size() && Now - LastSend > kDrainSeconds)
        break;
      // Sleep in ppoll until kSpinMs before the next send, then poll
      // without blocking: a sleeping vCPU can wake milliseconds late.
      double Wait =
          Next < Sched.size() ? std::max(0.0, Sched[Next].first - Now) : 0.05;
      Wait = Wait > kSpinMs / 1e3 ? Wait - kSpinMs / 1e3 : 0.0;
      pollfd Pfd[kConns];
      for (std::size_t I = 0; I < Fds.size(); ++I)
        Pfd[I] = {Fds[I], POLLIN, 0};
      timespec Ts{static_cast<time_t>(Wait),
                  static_cast<long>((Wait - std::floor(Wait)) * 1e9)};
      if (::ppoll(Pfd, Fds.size(), &Ts, nullptr) <= 0)
        continue;
      for (std::size_t I = 0; I < Fds.size(); ++I) {
        if (!(Pfd[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        const ssize_t N = ::recv(Fds[I], Buf, sizeof(Buf), 0);
        if (N <= 0)
          continue;
        const double RecvAt = nowSeconds();
        RdBuf[I].append(Buf, static_cast<std::size_t>(N));
        std::size_t Pos;
        while ((Pos = RdBuf[I].find('\n')) != std::string::npos) {
          const std::string Line = RdBuf[I].substr(0, Pos);
          RdBuf[I].erase(0, Pos + 1);
          Sent *S = onReply(P, Line, Base, RecvAt, Keys);
          if (!S)
            continue;
          --Outstanding;
          --InFlightPerKey[S->Key];
          recordSpans(T, *S, Base + static_cast<uint64_t>(S - P.Reqs.data()),
                      PhaseSpan, Keys);
        }
      }
    }
    for (Sent &S : P.Reqs)
      if (!S.Replied) {
        S.Replied = true;
        ++P.Failed;
      }
  }

  service::Service &service() { return *Svc; }
  net::Server &server() { return *Srv; }

  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

private:
  static bool sendAll(int Fd, const std::string &Line) {
    std::size_t Off = 0;
    while (Off < Line.size()) {
      const ssize_t N =
          ::send(Fd, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  /// Matches one reply line to its request; null for lines that are not
  /// a reply to this phase (never expected).
  static Sent *onReply(PhaseResult &P, const std::string &Line, uint64_t Base,
                       double RecvAt, const std::vector<KeySpec> &Keys) {
    Expected<json::Value> V = json::parse(Line);
    if (!V.ok())
      return nullptr;
    const std::string Id = V->getString("id", "");
    if (Id.size() < 2 || Id[0] != 'r')
      return nullptr;
    const uint64_t N = std::strtoull(Id.c_str() + 1, nullptr, 10);
    if (N < Base || N - Base >= P.Reqs.size())
      return nullptr;
    Sent &S = P.Reqs[N - Base];
    if (S.Replied)
      return nullptr;
    S.Replied = true;
    S.RecvAt = RecvAt;
    S.Queue = V->getNumber("queue_seconds", 0.0);
    if (!V->getBool("ok", false)) {
      ++P.Failed;
      std::fprintf(stderr, "perfbench: request %s failed: %s\n", Id.c_str(),
                   Line.c_str());
      return &S;
    }
    const double Sum = V->getNumber("checksum", 0.0);
    if (!digestsAgree(Sum, Keys[S.Key].Reference)) {
      std::fprintf(stderr, "perfbench: %s digest %.17g != reference %.17g\n",
                   Keys[S.Key].Short.c_str(), Sum, Keys[S.Key].Reference);
      ++P.Failed;
      ++P.Mismatched;
      return &S;
    }
    S.Ok = true;
    S.Load = V->getNumber("load_seconds", 0.0);
    S.Prep = V->getNumber("prep_seconds", 0.0);
    S.Kernel = V->getNumber("kernel_seconds", 0.0);
    S.Updates = V->getNumber("edges_processed", 0.0);
    S.SimdUtil = V->getNumber("simd_util", 0.0);
    S.MeanD1 = V->getNumber("mean_d1", 0.0);
    S.Lanes = static_cast<int>(V->getNumber("lanes", 16.0));
    return &S;
  }

  /// The request span (send -> reply, layer net) and, under it, the
  /// stage times the reply reports, laid end to end.
  static void recordSpans(Tracer &T, const Sent &S, uint64_t Req,
                          uint64_t Parent, const std::vector<KeySpec> &Keys) {
    if (!S.Traced || !T.active())
      return;
    const uint64_t Id = T.record("request:" + Keys[S.Key].Short, "net",
                                 Parent, Req, S.SentAt, S.RecvAt - S.SentAt);
    double At = S.SentAt;
    const std::pair<const char *, std::pair<const char *, double>> Stages[] = {
        {"queue", {"service", S.Queue}},
        {"load", {"graph", S.Load}},
        {"prep", {"apps", S.Prep}},
        {"kernel", {"kernel", S.Kernel}}};
    for (const auto &St : Stages) {
      if (St.second.second <= 0)
        continue;
      T.record(St.first, St.second.first, Id, Req, At, St.second.second);
      At += St.second.second;
    }
  }

  std::unique_ptr<service::Service> Svc;
  std::unique_ptr<net::Server> Srv;
  std::atomic<bool> Stop{false};
  std::vector<int> Fds;
  std::vector<std::string> RdBuf;
  uint64_t NextId = 1;
  std::thread Loop; // declared last: joined before the members it uses
};

/// Seeded arrivals at \p Rps for \p Seconds, starting at \p T0, each
/// picking a key by popularity.  The count is fixed at Rps * Seconds and
/// the times are uniform order statistics over the window: a Poisson
/// process conditioned on its count, so seeds differ in when requests
/// arrive, not in how many.
std::vector<std::pair<double, std::size_t>>
schedule(Xoshiro256 &Rng, double T0, double Rps, double Seconds,
         const std::vector<KeySpec> &Keys) {
  double Total = 0;
  for (const KeySpec &K : Keys)
    Total += K.Weight;
  const std::size_t N = static_cast<std::size_t>(std::lround(Rps * Seconds));
  std::vector<double> At(N);
  for (double &T : At)
    T = T0 + Rng.nextDouble() * Seconds;
  std::sort(At.begin(), At.end());
  std::vector<std::pair<double, std::size_t>> S;
  for (double T : At) {
    double Pick = Rng.nextDouble() * Total;
    std::size_t K = 0;
    while (K + 1 < Keys.size() && Pick >= Keys[K].Weight) {
      Pick -= Keys[K].Weight;
      ++K;
    }
    S.push_back({T, K});
  }
  return S;
}

/// Sends one request per key, pipelined, and waits for every reply: the
/// cache warm-up.
bool warmUp(Harness &H, const std::vector<KeySpec> &Keys, Tracer &T,
            uint64_t Parent) {
  std::vector<std::pair<double, std::size_t>> Sched;
  const double Now = nowSeconds();
  for (std::size_t K = 0; K < Keys.size(); ++K)
    Sched.push_back({Now, K});
  PhaseResult P;
  H.runPhase(P, Sched, Keys, T, Parent);
  return P.Failed == 0;
}

void reportPhase(const PhaseResult &P, const std::vector<KeySpec> &Keys) {
  for (std::size_t K = 0; K < Keys.size(); ++K) {
    std::vector<double> Svc, Lat;
    for (const Sent &S : P.Reqs)
      if (S.Ok && S.Key == K) {
        Svc.push_back((S.Load + S.Prep + S.Kernel) * 1e3);
        Lat.push_back((S.RecvAt - S.Due) * 1e3);
      }
    std::fprintf(stderr,
                 "  %-18s n=%4zu service p50 %8.3f max %8.3f ms, latency "
                 "p50 %8.3f max %8.3f ms\n",
                 Keys[K].Short.c_str(), Svc.size(), percentile(Svc, 0.5),
                 percentile(Svc, 1.0), percentile(Lat, 0.5),
                 percentile(Lat, 1.0));
  }
  const std::vector<double> Lat = P.latMs();
  const std::vector<double> Late = P.lateMs();
  std::fprintf(stderr,
               "%s: %.0f rps x %.1f s: sent %zu, failed %lld, p50 %.3f ms, "
               "p99 %.3f ms (%zu samples), slo_share %.4f, gen late p99 "
               "%.3f ms, max %.3f ms\n",
               P.Name.c_str(), P.Rps, P.Seconds, P.Reqs.size(),
               static_cast<long long>(P.Failed), percentile(Lat, 0.5),
               percentile(Lat, 0.99), Lat.size(), P.sloShare(),
               percentile(Late, 0.99), percentile(Late, 1.0));
}

} // namespace

int perfbench::runServe(const Args &A, Tracer &T, Outcome &Out) {
  std::vector<KeySpec> Keys = warmKeys();
  LayerFigures L;
  Status Refs;
  {
    ScopedSpan Sp(T, "references", "bench", 0, 0);
    Refs = computeReferences(Keys, A.Traced ? &L : nullptr, T);
  }
  if (!Refs.ok()) {
    std::fprintf(stderr, "perfbench: reference runs failed: %s\n",
                 Refs.toString().c_str());
    return 1;
  }

  // --- Set-up: server start + cache warm-up, repeated; median reported.
  // The first repetition serves the measured phases; the others run
  // after them, so a slow spell of the host at either end of the run
  // moves only a minority of the repetitions.
  std::unique_ptr<Harness> H;
  std::vector<double> SetupS;
  auto setUp = [&]() {
    H.reset(); // the previous repetition drains and joins first
    // Hand the previous repetition's freed pages back, so peak RSS is
    // the serving process's, not an accumulation of discarded copies.
    malloc_trim(0);
    ScopedSpan Sp(T, "setup", "bench", 0, 0);
    H = std::make_unique<Harness>();
    const Status S = H->start();
    if (!S.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   S.toString().c_str());
      return false;
    }
    if (!warmUp(*H, Keys, T, Sp.id())) {
      std::fprintf(stderr, "perfbench: warm-up requests failed\n");
      return false;
    }
    SetupS.push_back(Sp.close());
    return true;
  };
  if (!setUp())
    return 1;

  // --- Measured phases.
  Xoshiro256 Rng(A.Seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<PhaseResult> Phases;
  auto addPhase = [&](const char *Name, double Rps, double Seconds,
                      double SloMs) {
    PhaseResult P;
    P.Name = Name;
    P.Rps = Rps;
    P.Seconds = Seconds;
    P.SloMs = SloMs;
    Phases.push_back(std::move(P));
  };
  addPhase("light", kLightRps, A.Seconds * 0.4, kWarmSloMs);
  addPhase("heavy", kHeavyRps, A.Seconds * 0.6, kWarmSloMs);
  const service::CacheStats C0 = H->service().cacheStats();
  const auto S0 = H->service().schedulerStats();
  const Rusage R0 = Rusage::now();
  for (PhaseResult &P : Phases) {
    ScopedSpan Sp(T, "phase:" + P.Name, "bench", 0, 0);
    // Start 10 ms out so the first arrivals are not already late.
    const auto Sched = schedule(Rng, nowSeconds() + 0.01, P.Rps, P.Seconds,
                                Keys);
    H->runPhase(P, Sched, Keys, T, Sp.id());
    reportPhase(P, Keys);
  }
  const Rusage Delta = Rusage::now() - R0;
  const service::CacheStats C1 = H->service().cacheStats();
  const auto S1 = H->service().schedulerStats();
  H->shutdown();
  const net::Server::Stats NS = H->server().stats();
  const double PeakRssMb = peakRssMb();
  for (int R = 1; R < (A.Traced ? 1 : kSetupRepeats); ++R)
    if (!setUp())
      return 1;
  std::fprintf(stderr, "set-up (s):");
  for (double V : SetupS)
    std::fprintf(stderr, " %.4f", V);
  std::fprintf(stderr, "\n");

  std::vector<double> LateMs;
  int64_t Identical = 0;
  for (const PhaseResult &P : Phases) {
    Out.Attempted += static_cast<int64_t>(P.Reqs.size());
    Out.Failed += P.Failed;
    Out.Mismatched += P.Mismatched;
    for (const Sent &S : P.Reqs) {
      LateMs.push_back((S.SentAt - S.Due) * 1e3);
      Identical += S.IdenticalInFlight;
    }
  }
  const std::size_t TooLate = static_cast<std::size_t>(
      std::count_if(LateMs.begin(), LateMs.end(),
                    [](double L) { return L > kLateLimitMs; }));
  if (TooLate * 100 > LateMs.size()) {
    Out.Valid = false;
    Out.InvalidReason = "generator fell behind its schedule: " +
                        std::to_string(TooLate) + " of " +
                        std::to_string(LateMs.size()) + " sends later than " +
                        std::to_string(kLateLimitMs) + " ms";
  }

  const PhaseResult &Main = Phases.back();  // heavy
  const PhaseResult &First = Phases.front(); // light
  const int64_t Lookups = (C1.Hits - C0.Hits) + (C1.Misses - C0.Misses);
  const double HitShare =
      Lookups > 0 ? static_cast<double>(C1.Hits - C0.Hits) /
                        static_cast<double>(Lookups)
                  : 0.0;
  const double IdenticalShare =
      LateMs.empty() ? 0.0
                     : static_cast<double>(Identical) /
                           static_cast<double>(LateMs.size());
  std::fprintf(stderr,
               "serve-warm: cache hit share %.4f, identical-in-flight share "
               "%.4f, evictions %lld\n",
               HitShare, IdenticalShare,
               static_cast<long long>(C1.Evictions - C0.Evictions));

  if (!A.Traced) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("peak_rss_mb", PeakRssMb, "MB");
    Out.add("ops_per_s", Main.okPerSecond(), "1/s");
    Out.add("lat_p50_ms", percentile(Main.latMs(), 0.50), "ms");
    Out.add("lat_tail_ms", percentile(Main.latMs(), 0.95), "ms");
    Out.add("slo_share", Main.sloShare(), "share");
    return 0;
  }

  // Light-phase latency is report-only: paper-batch has no such phase.
  Out.add("lat_p50_ms.light", percentile(First.latMs(), 0.50), "ms", false);
  Out.add("lat_p95_ms.light", percentile(First.latMs(), 0.95), "ms", false);
  Out.add("slo_share.light", First.sloShare(), "share", false);
  // Stage percentiles are report-only; BENCHMARK.json lists each
  // stage's share of the latency (see Layers.h).
  auto stageMs = [&](const PhaseResult &P, double Q, auto Stage) {
    return percentile(P.field(Stage), Q) * 1e3;
  };
  auto queue = [](const Sent &S) { return S.Queue; };
  // Client latency from the actual send minus the stages the reply
  // reports: read, parse, batch wait, render and write.
  auto net = [](const Sent &S) {
    return (S.RecvAt - S.SentAt) - (S.Queue + S.Load + S.Prep + S.Kernel);
  };
  Out.add("service.queue_ms.p50", stageMs(Main, 0.5, queue), "ms", false);
  Out.add("service.queue_ms.p99", stageMs(Main, 0.99, queue), "ms", false);
  Out.add("service.load_ms.p99",
          stageMs(Main, 0.99, [](const Sent &S) { return S.Load; }), "ms",
          false);
  Out.add("net.overhead_ms.p50", stageMs(First, 0.5, net), "ms", false);
  Out.add("net.overhead_ms.p99", stageMs(First, 0.99, net), "ms", false);
  Out.add("gen.late_ms.p99", percentile(LateMs, 0.99), "ms", false);
  double Busy = 0;
  for (const Sent &S : Main.Reqs)
    if (S.Ok) {
      Busy += S.Load + S.Prep + S.Kernel;
      L.Kernel.add(S.Prep, S.Kernel, S.Updates, S.SimdUtil, S.MeanD1,
                   S.Lanes);
      L.Split.LatencyS += S.RecvAt - S.Due;
      L.Split.QueueS += S.Queue;
      L.Split.LoadS += S.Load;
      L.Split.NetS += net(S);
      L.Split.LateS += S.SentAt - S.Due;
    }
  L.BusyShare = Busy / (kWorkers * Main.Seconds);
  L.CacheHitShare = HitShare;
  L.CacheEvictions = static_cast<double>(C1.Evictions - C0.Evictions);
  L.CacheCoalesced = static_cast<double>(C1.Coalesced - C0.Coalesced);
  L.Shed = static_cast<double>(S1.Shed - S0.Shed);
  L.Rejected = static_cast<double>(S1.Rejected - S0.Rejected);
  L.BatchSizeMean =
      NS.FlushedBatches > 0 ? static_cast<double>(NS.FlushedBatchRequests) /
                                  static_cast<double>(NS.FlushedBatches)
                            : 0.0;
  L.RepliesDropped = static_cast<double>(NS.RepliesDropped);
  L.IdenticalShare = IdenticalShare;
  L.Os = Delta;
  // Requests of the traced blocks against those of the untraced ones,
  // same phase.
  std::vector<double> On, Off;
  for (const Sent &S : Main.Reqs)
    if (S.Ok)
      (S.Traced ? On : Off).push_back(S.RecvAt - S.Due);
  L.TraceOverhead = median(On) / std::max(median(Off), 1e-12) - 1.0;
  addLayerMetrics(Out, L);
  return 0;
}

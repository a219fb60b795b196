//===- bench/serve_throughput.cpp - Serving layer latency harness ---------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Measures what the serving layer buys: end-to-end request latency cold
// (dataset load + inspector schedules + kernel) versus warm (cache hit,
// schedules reused, kernel only).  The paper amortizes inspector cost
// across iterations of one run; the dataset cache extends that across
// requests, so a warm request should be dominated by kernel time alone.
//
// Part 1 reports cold/warm latency and the speedup for pagerank and
// sssp, one JSON line each.  Part 2 drives a sustained sequence of mixed
// requests across four applications through one Service instance and
// reports aggregate throughput plus the cache counters.  Part 3 is the
// overload contrast: the same burst of concurrent traffic against a
// small queue, once with shedding disabled and once with the queue
// watermark at 50%, reporting admitted-request p50/p95/p99 and the
// shed/rejected split -- the numbers behind "shedding trades a little
// goodput for bounded tail latency".
//
//   $ bench/serve_throughput
//   {"bench":"serve_cold_warm","app":"pagerank",...,"speedup":57.1}
//   {"bench":"serve_cold_warm","app":"sssp",...,"speedup":21.9}
//   {"bench":"serve_sustained","requests":120,...}
//   {"bench":"serve_overload","shedding":false,...,"p99_seconds":...}
//   {"bench":"serve_overload","shedding":true,...,"p99_seconds":...}
//
// Every line is one JSON object, so scripts/bench_collect.sh can fold
// the whole run into BENCH_<rev>.json unmodified.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "service/Service.h"
#include "util/Timer.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include "net/Server.h"

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#endif

using namespace cfv;
using namespace cfv::service;

namespace {

ServeRequest makeRequest(const std::string &App, const std::string &Dataset,
                         double Scale, int Iters) {
  ServeRequest R;
  R.App = App;
  R.Dataset = Dataset;
  R.Scale = Scale;
  R.Iters = Iters;
  return R;
}

/// Submits \p R and returns end-to-end wall latency; aborts on errors so
/// the bench never reports numbers for failed work.
double timedRequest(Service &Svc, const ServeRequest &R, ServeResponse *Out) {
  WallTimer T;
  const ServeResponse Resp = Svc.submit(R).get();
  const double Seconds = T.seconds();
  if (!Resp.Ok) {
    std::fprintf(stderr, "error: %s %s: %s\n", R.App.c_str(),
                 R.Dataset.c_str(), Resp.Error.toString().c_str());
    std::exit(1);
  }
  if (Out)
    *Out = Resp;
  return Seconds;
}

/// Cold-vs-warm latency for one app: a fresh Service per app so the
/// first request pays the full load, then the same request again.  Few
/// kernel iterations keep the load dominant, the serving-relevant
/// regime.
void coldWarm(const std::string &App, double Scale) {
  Service::Config C;
  C.CacheBytes = 0; // unlimited; eviction is the cache test's business
  Service Svc(C);

  const ServeRequest R = makeRequest(App, "higgs-twitter-sim", Scale, 2);
  ServeResponse Cold, Warm;
  const double ColdSeconds = timedRequest(Svc, R, &Cold);
  const double WarmSeconds = timedRequest(Svc, R, &Warm);

  std::printf("{\"bench\":\"serve_cold_warm\",\"app\":\"%s\","
              "\"scale\":%g,"
              "\"cold_seconds\":%.6f,\"warm_seconds\":%.6f,"
              "\"cold_load_seconds\":%.6f,\"warm_load_seconds\":%.6f,"
              "\"warm_cache_hit\":%s,\"speedup\":%.2f}\n",
              App.c_str(), Scale, ColdSeconds, WarmSeconds,
              Cold.LoadSeconds, Warm.LoadSeconds,
              Warm.CacheHit ? "true" : "false",
              WarmSeconds > 0.0 ? ColdSeconds / WarmSeconds : 0.0);
  std::fflush(stdout);
}

/// A sustained mixed-app sequence through one warm service: the steady
/// state a long-lived cfv_serve process reaches.
void sustained(int Requests, double Scale) {
  Service::Config C;
  C.CacheBytes = 0;
  Service Svc(C);

  const std::vector<ServeRequest> Mix = {
      makeRequest("pagerank", "higgs-twitter-sim", Scale, 3),
      makeRequest("sssp", "higgs-twitter-sim", Scale, 0),
      makeRequest("wcc", "soc-pokec-sim", Scale, 0),
      makeRequest("bfs", "amazon0312-sim", Scale, 0),
  };

  WallTimer T;
  double KernelSeconds = 0.0, LoadSeconds = 0.0;
  bench::LatencyRecorder Latency;
  for (int I = 0; I < Requests; ++I) {
    ServeResponse Resp;
    Latency.add(
        timedRequest(Svc, Mix[static_cast<size_t>(I) % Mix.size()], &Resp));
    KernelSeconds += Resp.KernelSeconds;
    LoadSeconds += Resp.LoadSeconds;
  }
  const double Wall = T.seconds();

  const CacheStats S = Svc.cacheStats();
  std::printf("{\"bench\":\"serve_sustained\",\"requests\":%d,"
              "\"apps\":%d,\"scale\":%g,"
              "\"wall_seconds\":%.6f,\"requests_per_second\":%.1f,"
              "\"kernel_seconds\":%.6f,\"load_seconds\":%.6f,"
              "\"p50_seconds\":%.6f,\"p95_seconds\":%.6f,"
              "\"p99_seconds\":%.6f,"
              "\"cache_hits\":%lld,\"cache_misses\":%lld,"
              "\"cache_resident_bytes\":%lld}\n",
              Requests, static_cast<int>(Mix.size()), Scale, Wall,
              Wall > 0.0 ? Requests / Wall : 0.0, KernelSeconds, LoadSeconds,
              Latency.quantile(0.50), Latency.quantile(0.95),
              Latency.quantile(0.99), static_cast<long long>(S.Hits),
              static_cast<long long>(S.Misses),
              static_cast<long long>(S.ResidentBytes));
  std::fflush(stdout);
}

/// The overload contrast: \p Requests submitted with up to 3x the queue
/// depth outstanding, against a deliberately small queue.  With
/// \p ShedQueuePct = 100 shedding never engages (only the hard
/// queue-full bound rejects); at 50 the watermark sheds early and the
/// admitted requests see a short queue.  Latencies are recorded for
/// admitted-and-completed requests only -- the tail the caller actually
/// waits on.
void overload(int Requests, double Scale, int ShedQueuePct) {
  Service::Config C;
  C.CacheBytes = 0;
  C.QueueDepth = 16;
  C.Workers = 2;
  C.ShedQueuePct = ShedQueuePct;
  C.ShedLatencyMs = 0.0;
  Service Svc(C);

  const std::vector<ServeRequest> Mix = {
      makeRequest("pagerank", "higgs-twitter-sim", Scale, 3),
      makeRequest("sssp", "higgs-twitter-sim", Scale, 0),
      makeRequest("wcc", "soc-pokec-sim", Scale, 0),
      makeRequest("bfs", "amazon0312-sim", Scale, 0),
  };
  // Warm every dataset first so the burst measures queueing, not load.
  for (const ServeRequest &R : Mix)
    timedRequest(Svc, R, nullptr);

  struct Pending {
    WallTimer T;
    std::future<ServeResponse> F;
  };
  std::vector<Pending> InFlight;
  bench::LatencyRecorder Latency;
  int64_t Ok = 0, Dropped = 0;
  auto reap = [&](Pending &P) {
    const ServeResponse Resp = P.F.get();
    const double Seconds = P.T.seconds();
    if (Resp.Ok) {
      ++Ok;
      Latency.add(Seconds);
    } else {
      ++Dropped; // shed or queue-full; the split comes from Stats below
    }
  };

  WallTimer Wall;
  const size_t MaxInFlight = static_cast<size_t>(3 * C.QueueDepth);
  for (int I = 0; I < Requests; ++I) {
    if (InFlight.size() >= MaxInFlight) {
      reap(InFlight.front()); // FIFO admission: the front resolves first
      InFlight.erase(InFlight.begin());
    }
    Pending P;
    P.F = Svc.submit(Mix[static_cast<size_t>(I) % Mix.size()]);
    InFlight.push_back(std::move(P));
  }
  for (Pending &P : InFlight)
    reap(P);
  const double WallSeconds = Wall.seconds();

  const RequestScheduler::Stats S = Svc.schedulerStats();
  std::printf("{\"bench\":\"serve_overload\",\"shedding\":%s,"
              "\"shed_queue_pct\":%d,\"queue_depth\":%d,\"workers\":%d,"
              "\"requests\":%d,\"scale\":%g,\"ok\":%lld,"
              "\"shed\":%lld,\"rejected\":%lld,"
              "\"wall_seconds\":%.6f,\"goodput_rps\":%.1f,"
              "\"p50_seconds\":%.6f,\"p95_seconds\":%.6f,"
              "\"p99_seconds\":%.6f}\n",
              ShedQueuePct < 100 ? "true" : "false", ShedQueuePct,
              C.QueueDepth, C.Workers, Requests, Scale,
              static_cast<long long>(Ok), static_cast<long long>(S.Shed),
              static_cast<long long>(S.Rejected), WallSeconds,
              WallSeconds > 0.0 ? Ok / WallSeconds : 0.0,
              Latency.quantile(0.50), Latency.quantile(0.95),
              Latency.quantile(0.99));
  std::fflush(stdout);
  (void)Dropped;
}

#if defined(__linux__)

/// A blocking loopback NDJSON client with a buffered line reader.
class BenchClient {
public:
  explicit BenchClient(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~BenchClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool connected() const { return Fd >= 0; }

  bool sendLine(const std::string &L) {
    const std::string Wire = L + "\n";
    std::size_t Off = 0;
    while (Off < Wire.size()) {
      const ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off,
                               MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  std::string recvLine() {
    for (;;) {
      const std::size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string L = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return L;
      }
      char Tmp[8192];
      const ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return "";
      Buf.append(Tmp, static_cast<std::size_t>(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

std::string extractId(const std::string &Line) {
  const std::size_t At = Line.find("\"id\":\"");
  if (At == std::string::npos)
    return "";
  const std::size_t Start = At + 6;
  const std::size_t End = Line.find('"', Start);
  return End == std::string::npos ? "" : Line.substr(Start, End - Start);
}

/// Part 4: concurrent clients against the real TCP front-end
/// (net::Server in-process, ephemeral port).  Every client pipelines
/// warm same-dataset requests, so the epoll loop and the out-of-order
/// reply path carry the load; latency is per-request wall time from
/// send to its id-matched reply.  A burst can outrun the scheduler's
/// queue bound: those requests answer a structured unavailable or
/// overloaded reply and count as rejected, while throughput and
/// percentiles cover the OK replies.  Any missing, duplicate, malformed
/// or otherwise failed reply exits 1 -- every request gets exactly one
/// answer.
void multiClient(int Clients, int PerClient, double Scale) {
  Service::Config SC;
  SC.CacheBytes = 0;
  SC.Workers = 2;
  Service Svc(SC);

  net::Server::Config NC;
  NC.Port = 0;
  std::atomic<bool> Drain{false};
  NC.ShouldDrain = [&Drain] { return Drain.load(); };
  net::Server Server(Svc, NC);
  const Status St = Server.listen();
  if (!St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    std::exit(1);
  }
  std::thread LoopThread([&Server] { Server.run(); });
  const int Port = Server.boundPort();

  const std::string Body =
      "{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\",\"scale\":" +
      std::to_string(Scale) + ",\"iters\":2,\"id\":\"";

  // Warm the one dataset so the measured burst is pure serving.
  {
    BenchClient Warm(Port);
    if (!Warm.connected() || !Warm.sendLine(Body + "warm\"}") ||
        Warm.recvLine().empty()) {
      std::fprintf(stderr, "error: warmup against 127.0.0.1:%d failed\n",
                   Port);
      std::exit(1);
    }
  }

  std::mutex Mu;
  std::vector<double> Latencies;
  std::atomic<int64_t> Failures{0};
  std::atomic<int64_t> Rejected{0};
  using Clock = std::chrono::steady_clock;

  WallTimer Wall;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      BenchClient Cl(Port);
      if (!Cl.connected()) {
        Failures.fetch_add(PerClient);
        return;
      }
      std::map<std::string, Clock::time_point> Sent;
      for (int I = 0; I < PerClient; ++I) {
        const std::string Id =
            "c" + std::to_string(C) + "-" + std::to_string(I);
        Sent[Id] = Clock::now();
        if (!Cl.sendLine(Body + Id + "\"}")) {
          Failures.fetch_add(1);
          return;
        }
      }
      std::vector<double> Mine;
      Mine.reserve(static_cast<std::size_t>(PerClient));
      for (int I = 0; I < PerClient; ++I) {
        const std::string L = Cl.recvLine();
        const auto It = Sent.find(extractId(L));
        if (L.empty() || It == Sent.end()) { // missing, duplicate, malformed
          Failures.fetch_add(1);
          continue;
        }
        const double Seconds =
            std::chrono::duration<double>(Clock::now() - It->second).count();
        Sent.erase(It);
        if (L.find("\"ok\":true") != std::string::npos)
          Mine.push_back(Seconds);
        else if (L.find("\"error\":\"unavailable\"") != std::string::npos ||
                 L.find("\"error\":\"overloaded\"") != std::string::npos)
          Rejected.fetch_add(1);
        else
          Failures.fetch_add(1);
      }
      std::lock_guard<std::mutex> Lock(Mu);
      Latencies.insert(Latencies.end(), Mine.begin(), Mine.end());
    });
  for (auto &T : Threads)
    T.join();
  const double WallSeconds = Wall.seconds();

  Drain.store(true);
  LoopThread.join();

  if (Failures.load() > 0) {
    std::fprintf(stderr,
                 "error: %lld multiclient replies missing, duplicate, "
                 "malformed or failed\n",
                 static_cast<long long>(Failures.load()));
    std::exit(1);
  }

  bench::LatencyRecorder Latency;
  for (double S : Latencies)
    Latency.add(S);
  const int64_t Requests = static_cast<int64_t>(Clients) * PerClient;
  const double Ok = static_cast<double>(Latencies.size());
  std::printf("{\"bench\":\"serve_multiclient\",\"clients\":%d,"
              "\"requests_per_client\":%d,\"requests\":%lld,"
              "\"scale\":%g,\"rejected\":%lld,"
              "\"wall_seconds\":%.6f,\"requests_per_second\":%.1f,"
              "\"p50_seconds\":%.6f,\"p95_seconds\":%.6f,"
              "\"p99_seconds\":%.6f}\n",
              Clients, PerClient, static_cast<long long>(Requests), Scale,
              static_cast<long long>(Rejected.load()), WallSeconds,
              WallSeconds > 0.0 ? Ok / WallSeconds : 0.0,
              Latency.quantile(0.50), Latency.quantile(0.95),
              Latency.quantile(0.99));
  std::fflush(stdout);
}

#endif // __linux__

} // namespace

int main(int Argc, char **Argv) {
  // Fixed small scale by default: the cold/warm contrast is about load
  // amortization, not kernel size.  A bare numeric argv[1] overrides the
  // request count; --clients [n [m]] runs only the multi-client part
  // (n concurrent TCP clients, m pipelined requests each).
  const double Scale = 0.25;

  if (Argc > 1 && std::strcmp(Argv[1], "--clients") == 0) {
#if defined(__linux__)
    const int Clients = Argc > 2 ? std::atoi(Argv[2]) : 8;
    const int PerClient = Argc > 3 ? std::atoi(Argv[3]) : 25;
    multiClient(Clients > 0 ? Clients : 8, PerClient > 0 ? PerClient : 25,
                Scale);
#else
    std::fprintf(stderr, "error: --clients needs the Linux TCP front-end\n");
    return 1;
#endif
    return 0;
  }

  const int Requests = Argc > 1 ? std::atoi(Argv[1]) : 120;
  coldWarm("pagerank", Scale);
  coldWarm("sssp", Scale);
  sustained(Requests > 0 ? Requests : 120, Scale);
  overload(Requests > 0 ? 2 * Requests : 240, Scale, 100); // shedding off
  overload(Requests > 0 ? 2 * Requests : 240, Scale, 50);  // shedding on
  return 0;
}

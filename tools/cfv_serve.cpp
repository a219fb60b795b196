//===- tools/cfv_serve.cpp - Long-lived NDJSON serving front-end ----------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// A long-lived front-end over the serving layer (src/service/): reads one
// JSON request per line from stdin and answers one JSON response per line
// on stdout, in submission order -- or, with --port, serves many TCP
// clients, each answered as its requests complete.  Both transports run
// on the same protocol engine, net::Server.  Datasets and their inspector
// schedules are cached across requests, so repeated requests against one
// dataset skip both the load and the inspector -- the cross-request
// amortization argument of the serving layer.  Linux-only (epoll).
//
//   $ echo '{"app":"pagerank","dataset":"higgs-twitter-sim"}' | cfv_serve
//   {"ok":true,"app":"pagerank","version":"tiling_and_invec",...}
//
// Protocol:
//   {"app":"pagerank","dataset":"higgs-twitter-sim","version":"invec",
//    "iters":10,"threads":2,"source":0,"scale":1.0,"timeout_ms":500,
//    "id":"r1"}                   -> one response line, same "id"
//   {"cmd":"stats"}               -> cache + scheduler counters plus the
//                                    merged metrics registry (answered
//                                    immediately, even mid-load)
//   {"cmd":"metrics"}             -> Prometheus text exposition, JSON-
//                                    wrapped in {"prometheus":"..."}
//   {"cmd":"shutdown"}            -> drains and exits 0
//   GET /metrics, GET /healthz    -> HTTP/1.1 answers (keep-alive), on
//                                    stdin as on --port
//   malformed line                -> structured parse_error response;
//                                    the server keeps serving
//
// Responses carry the result digest (checksum) plus latency telemetry:
// queue_seconds, load_seconds (0 exactly on a cache hit), prep_seconds,
// kernel_seconds, simd_util, mean_d1, cache_hit.
//
//===----------------------------------------------------------------------===//

#include "net/NetIo.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"
#include "service/Service.h"
#include "util/Env.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace cfv;

namespace {

/// SIGTERM/SIGINT request a graceful drain: stop admitting, finish (or
/// structured-fail) everything in flight, flush metrics, exit 0.
std::atomic<bool> DrainRequested{false};

void onDrainSignal(int) { DrainRequested.store(true); }

void installSignalHandlers() {
  net::ignoreSigpipe(); // client disconnects are EPIPE, not death
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // deliberately no SA_RESTART: epoll_wait must EINTR
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

bool drainRequested() { return DrainRequested.load(); }

[[noreturn]] void usage(int Code) {
  std::fprintf(
      Code ? stderr : stdout,
      "usage: cfv_serve [options]\n"
      "\n"
      "Reads newline-delimited JSON requests from stdin and writes one\n"
      "JSON response per line to stdout, in submission order.\n"
      "\n"
      "options:\n"
      "  --queue-depth <n>    admission-control queue bound (default 64);\n"
      "                       a full queue answers {\"ok\":false,\n"
      "                       \"error\":\"unavailable\"} immediately\n"
      "  --workers <n>        scheduler worker threads (default 1; each\n"
      "                       request still parallelizes internally via\n"
      "                       --threads / CFV_THREADS)\n"
      "  --cache-bytes <n>    dataset cache budget in bytes\n"
      "                       (default $CFV_CACHE_BYTES, else 256 MiB;\n"
      "                       0 = unlimited)\n"
      "  --port <p>           serve many concurrent TCP clients on port p\n"
      "                       instead of stdin/stdout, each answered as\n"
      "                       its requests complete (0 = ephemeral port,\n"
      "                       printed to stderr)\n"
      "  --shed-queue-pct <n> shed with {\"error\":\"overloaded\"} once the\n"
      "                       queue passes n%% of --queue-depth (default\n"
      "                       $CFV_SHED_QUEUE_PCT, else 100 = off)\n"
      "  --shed-latency-ms <n> shed when observed task latency (EWMA)\n"
      "                       exceeds n ms and a backlog exists (default\n"
      "                       $CFV_SHED_LATENCY_MS, else 0 = off)\n"
      "  --watchdog-ms <n>    fail requests whose worker stalls past n ms\n"
      "                       with a structured error (default\n"
      "                       $CFV_WATCHDOG_MS, else 0 = off)\n"
      "  --faults <spec>      arm the fault injector, e.g.\n"
      "                       io.read_error:p=0.05,cache.alloc_fail:nth=3\n"
      "                       (schedules: always, p=<prob>, nth=<k>,\n"
      "                       burst=<n>@<k>; seeded by CFV_SEED; default\n"
      "                       $CFV_FAULTS)\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully: admission stops, in-flight\n"
      "requests finish (or fail structurally), metrics flush to stderr,\n"
      "exit 0.\n"
      "\n"
      "requests (one JSON object per line):\n"
      "  {\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\"}\n"
      "  {\"app\":\"sssp\",\"file\":\"graph.txt\",\"source\":3,\"id\":\"r7\"}\n"
      "  fields: app (required), version, dataset, file, scale, seed,\n"
      "          source, iters, threads, timeout_ms, id\n"
      "  {\"cmd\":\"stats\"}     cache/scheduler counters + metrics registry\n"
      "                       (answered immediately, even mid-load)\n"
      "  {\"cmd\":\"metrics\"}   Prometheus text, JSON-wrapped\n"
      "  {\"cmd\":\"backends\"}  compiled/available SIMD tiers + selection\n"
      "  {\"cmd\":\"shutdown\"}  drain and exit\n"
      "  GET /metrics ...     HTTP/1.1 Prometheus scrape; /healthz also\n"
      "                       answers (stdin and --port alike)\n"
      "\n"
      "environment: CFV_BACKEND, CFV_THREADS, CFV_VALIDATE, CFV_SCALE,\n"
      "             CFV_CACHE_BYTES, CFV_MAX_CONNS, CFV_LISTEN_BACKLOG,\n"
      "             CFV_IDLE_TIMEOUT_MS (see README)\n");
  std::exit(Code);
}

struct Options {
  int QueueDepth = 64;
  int Workers = 1;
  int64_t CacheBytes = -1; ///< defer to CFV_CACHE_BYTES
  int Port = -1;           ///< -1 = stdin/stdout; 0 = ephemeral TCP
  int ShedQueuePct = -1;   ///< defer to CFV_SHED_QUEUE_PCT
  double ShedLatencyMs = -1.0; ///< defer to CFV_SHED_LATENCY_MS
  double WatchdogMs = -1.0;    ///< defer to CFV_WATCHDOG_MS
  std::string Faults;      ///< fault-injector spec; "" = CFV_FAULTS
};

long long parseIntFlag(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const long long V = std::strtoll(Text, &End, 0);
  if (End == Text || *End != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n",
                 Flag.c_str(), Text);
    usage(2);
  }
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        usage(2);
      }
      return Argv[++I];
    };
    if (Arg == "--queue-depth") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 1 << 20) {
        std::fprintf(stderr, "error: --queue-depth needs [1, 2^20]\n");
        usage(2);
      }
      O.QueueDepth = static_cast<int>(N);
    } else if (Arg == "--workers") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 256) {
        std::fprintf(stderr, "error: --workers needs [1, 256]\n");
        usage(2);
      }
      O.Workers = static_cast<int>(N);
    } else if (Arg == "--cache-bytes") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 0) {
        std::fprintf(stderr, "error: --cache-bytes needs >= 0\n");
        usage(2);
      }
      O.CacheBytes = N;
    } else if (Arg == "--port") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 0 || N > 65535) {
        std::fprintf(stderr, "error: --port needs [0, 65535]\n");
        usage(2);
      }
      O.Port = static_cast<int>(N);
    } else if (Arg == "--shed-queue-pct") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 100) {
        std::fprintf(stderr, "error: --shed-queue-pct needs [1, 100]\n");
        usage(2);
      }
      O.ShedQueuePct = static_cast<int>(N);
    } else if (Arg == "--shed-latency-ms") {
      O.ShedLatencyMs = static_cast<double>(parseIntFlag(Arg, Value()));
    } else if (Arg == "--watchdog-ms") {
      O.WatchdogMs = static_cast<double>(parseIntFlag(Arg, Value()));
    } else if (Arg == "--faults") {
      O.Faults = Value();
    } else if (Arg == "--help" || Arg == "-h")
      usage(0);
    else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage(2);
    }
  }
  return O;
}

/// Copies stdin into \p To, the far end of the socketpair the server
/// reads as its stdin connection.  epoll cannot watch a regular file
/// (`cfv_serve < requests.txt`), and O_NONBLOCK on an inherited stdin
/// would leak into the parent shell, so this thread copies with plain
/// blocking calls.  EOF half-closes \p To (the server still answers what
/// it read); the server closing its end (drain, bye) stops the copy.
void copyStdin(int To) {
  pollfd P[2] = {{STDIN_FILENO, POLLIN, 0}, {To, 0, 0}};
  char Buf[1 << 16];
  for (;;) {
    if (::poll(P, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (P[1].revents != 0) // POLLHUP/POLLERR: the server end is gone
      break;
    const ssize_t N = ::read(STDIN_FILENO, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0 || !net::writeAll(To, Buf, static_cast<std::size_t>(N)))
      break;
  }
  ::shutdown(To, SHUT_WR);
}

/// Makes stdin/stdout \p Server's stream connection: the server owns
/// Fds[1] of the new socketpair, copyStdin feeds Fds[0], and replies go
/// straight to stdout, which stays blocking.
Status bridgeStdio(net::Server &Server, int (&Fds)[2]) {
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds) != 0)
    return Status::error(ErrorCode::IoError,
                         std::string("socketpair: ") + std::strerror(errno));
  return Server.serveStream(Fds[1], STDOUT_FILENO);
}

/// Runs net::Server over stdin/stdout (\p Port < 0) or a TCP port.
int serve(service::Service &Svc, int Port) {
  net::Server::Config C;
  C.Port = Port;
  C.ShouldDrain = [] { return drainRequested(); };
  net::Server Server(Svc, C);
  int Fds[2] = {-1, -1};
  const Status S = Port >= 0 ? Server.listen() : bridgeStdio(Server, Fds);
  if (!S.ok()) {
    std::fprintf(stderr, "cfv_serve: %s\n", S.toString().c_str());
    return 1;
  }
  std::thread Copier;
  if (Port >= 0)
    std::fprintf(stderr, "cfv_serve: listening on 127.0.0.1:%d\n",
                 Server.boundPort());
  else
    Copier = std::thread(copyStdin, Fds[0]);
  const int Rc = Server.run();
  if (Copier.joinable()) {
    Copier.join(); // run() closed the server's end, which stops the copy
    ::close(Fds[0]);
  }
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  // Occupy any closed fd 0-2 before anything opens a file, so no socket
  // or epoll fd can land on stdin or stdout; a closed stdin then reads
  // as empty input.
  int Null;
  while ((Null = ::open("/dev/null", O_RDWR)) >= 0 && Null <= STDERR_FILENO)
    ;
  if (Null >= 0)
    ::close(Null);

  const Options O = parseArgs(Argc, Argv);
  installSignalHandlers();

  // --faults overrides the ambient CFV_FAULTS arming (which the
  // injector's first instance() performs on its own).
  if (!O.Faults.empty()) {
    const uint64_t Seed = static_cast<uint64_t>(
        env::intVar("CFV_SEED", 0xCAFEBABELL, INT64_MIN, INT64_MAX));
    const Expected<fault::Plan> P = fault::parsePlan(O.Faults, Seed);
    if (!P.ok()) {
      std::fprintf(stderr, "error: --faults: %s\n",
                   P.status().message().c_str());
      return 2;
    }
    fault::Injector::instance().configure(*P);
  }

  service::Service::Config C;
  C.CacheBytes = O.CacheBytes;
  C.QueueDepth = O.QueueDepth;
  C.Workers = O.Workers;
  C.ShedQueuePct = O.ShedQueuePct;
  C.ShedLatencyMs = O.ShedLatencyMs;
  C.WatchdogMs = O.WatchdogMs;
  service::Service Svc(C);

  const int Rc = serve(Svc, O.Port);

  // Graceful drain epilogue: everything admitted has answered by now
  // (run() waits for in-flight replies before returning); drain() is
  // the belt-and-braces barrier, then the final metrics state goes to
  // stderr so a supervisor's last scrape is never lost.
  Svc.drain();
  if (drainRequested())
    std::fprintf(stderr, "cfv_serve: drained on signal; final metrics:\n%s",
                 obs::MetricsRegistry::instance().renderPrometheus().c_str());
  return Rc;
}

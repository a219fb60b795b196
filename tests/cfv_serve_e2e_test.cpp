//===- tests/cfv_serve_e2e_test.cpp - cfv_serve subprocess tests ----------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Drives the installed cfv_serve binary (path injected as CFV_SERVE_BIN
// by CMake) end to end over the NDJSON protocol: warm-vs-cold caching
// (cache_hit flag, exactly-zero load time on the second request),
// malformed input answered with a structured error while the server
// keeps serving, replies in submission order, queue-full backpressure
// under --queue-depth 1, and the observability verbs -- stats answered
// immediately while a cold load is still in flight (the scrape-mid-load
// contract), the embedded metrics registry, and the Prometheus metrics
// verb.
//
// Two drivers: runServe() pipes a whole request file through a server
// (fine when response order doesn't matter), InteractiveServe keeps
// bidirectional pipes open so a test can synchronize on individual
// responses -- required since stats/metrics answer out of band.
//
//===----------------------------------------------------------------------===//

#include "resilience/Fault.h" // CFV_FAULTS: the --faults test adapts

#include "gtest/gtest.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

#ifndef CFV_SERVE_BIN
#error "CFV_SERVE_BIN must be defined to the cfv_serve binary path"
#endif

struct ServeRun {
  int ExitCode = -1;
  std::vector<std::string> Lines; ///< stdout, one response per entry
};

/// Writes \p Requests to a file, pipes it through cfv_serve with the
/// given extra \p Flags / \p EnvPrefix, and collects the response lines.
ServeRun runServe(const std::string &Requests, const std::string &Flags = "",
                  const std::string &EnvPrefix = "") {
  const std::string Dir = ::testing::TempDir();
  const std::string InPath = Dir + "cfv_serve_in.txt";
  const std::string OutPath = Dir + "cfv_serve_out.txt";
  {
    std::ofstream In(InPath);
    In << Requests;
  }
  const std::string Cmd = EnvPrefix + " \"" + CFV_SERVE_BIN + "\" " + Flags +
                          " < " + InPath + " > " + OutPath + " 2>/dev/null";
  const int Rc = std::system(Cmd.c_str());

  ServeRun R;
  if (Rc != -1 && WIFEXITED(Rc))
    R.ExitCode = WEXITSTATUS(Rc);
  std::ifstream Out(OutPath);
  std::string Line;
  while (std::getline(Out, Line))
    if (!Line.empty())
      R.Lines.push_back(Line);
  std::remove(InPath.c_str());
  std::remove(OutPath.c_str());
  return R;
}

bool contains(const std::string &S, const std::string &Needle) {
  return S.find(Needle) != std::string::npos;
}

/// A cfv_serve child with both pipe ends held open: send() writes one
/// request line, recv() blocks for one response line.  Reading a
/// request's response is the only synchronization the protocol offers,
/// and it is enough: once the response arrived, the work (and its
/// counter updates) happened.
class InteractiveServe {
public:
  explicit InteractiveServe(const std::vector<std::string> &Args = {}) {
    int ToChild[2], FromChild[2];
    if (::pipe(ToChild) != 0 || ::pipe(FromChild) != 0)
      return;
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(ToChild[0], 0);
      ::dup2(FromChild[1], 1);
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      ::close(FromChild[1]);
      std::vector<const char *> Argv = {CFV_SERVE_BIN};
      for (const std::string &A : Args)
        Argv.push_back(A.c_str());
      Argv.push_back(nullptr);
      ::execv(CFV_SERVE_BIN, const_cast<char *const *>(Argv.data()));
      std::_Exit(127);
    }
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    In = ::fdopen(ToChild[1], "w");
    Out = ::fdopen(FromChild[0], "r");
  }

  ~InteractiveServe() {
    if (In)
      std::fclose(In);
    if (Out)
      std::fclose(Out);
    if (Pid > 0) {
      int St = 0;
      ::waitpid(Pid, &St, 0);
    }
  }

  bool alive() const { return Pid > 0 && In && Out; }

  void send(const std::string &Line) {
    std::fputs(Line.c_str(), In);
    std::fputc('\n', In);
    std::fflush(In);
  }

  /// Blocks for the next response line ("" on EOF).
  std::string recv() {
    std::string L;
    int C;
    while ((C = std::fgetc(Out)) != EOF && C != '\n')
      L.push_back(static_cast<char>(C));
    return L;
  }

  /// Sends shutdown, drains to EOF, and reaps; returns the exit code.
  int shutdown() {
    send("{\"cmd\":\"shutdown\"}");
    while (!recv().empty())
      ;
    return waitExit();
  }

  pid_t pid() const { return Pid; }

  /// Drains stdout to EOF, closes the pipes, and reaps; returns the exit
  /// code.  Used by the signal tests, where the server decides on its
  /// own to leave.
  int waitExit() {
    while (!recv().empty())
      ;
    std::fclose(In);
    In = nullptr;
    std::fclose(Out);
    Out = nullptr;
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  }

private:
  pid_t Pid = -1;
  std::FILE *In = nullptr;
  std::FILE *Out = nullptr;
};

// Small synthetic inputs keep the whole suite fast while still loading
// a real dataset through the registry.
const char *kPagerank =
    "{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\","
    "\"scale\":0.05,\"iters\":3";

TEST(CfvServeE2e, WarmRequestHitsTheCache) {
  std::ostringstream In;
  In << kPagerank << ",\"id\":\"cold\"}\n";
  In << kPagerank << ",\"id\":\"warm\"}\n";
  In << "{\"cmd\":\"shutdown\"}\n";
  const ServeRun R = runServe(In.str());

  ASSERT_EQ(R.ExitCode, 0);
  ASSERT_EQ(R.Lines.size(), 3u);

  EXPECT_TRUE(contains(R.Lines[0], "\"id\":\"cold\"")) << R.Lines[0];
  EXPECT_TRUE(contains(R.Lines[0], "\"ok\":true")) << R.Lines[0];
  EXPECT_TRUE(contains(R.Lines[0], "\"cache_hit\":false")) << R.Lines[0];

  EXPECT_TRUE(contains(R.Lines[1], "\"id\":\"warm\"")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[1], "\"ok\":true")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[1], "\"cache_hit\":true")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[1], "\"load_seconds\":0,"))
      << "warm load time must be exactly zero: " << R.Lines[1];

  EXPECT_TRUE(contains(R.Lines[2], "\"bye\":true")) << R.Lines[2];
}

TEST(CfvServeE2e, MalformedLineAnswersErrorAndKeepsServing) {
  std::ostringstream In;
  In << "this is not json\n";
  In << "{\"app\":\"nope\",\"id\":\"bad-app\"}\n";
  In << kPagerank << ",\"id\":\"after\"}\n";
  In << "{\"cmd\":\"shutdown\"}\n";
  const ServeRun R = runServe(In.str());

  ASSERT_EQ(R.ExitCode, 0);
  ASSERT_EQ(R.Lines.size(), 4u);
  EXPECT_TRUE(contains(R.Lines[0], "\"ok\":false")) << R.Lines[0];
  EXPECT_TRUE(contains(R.Lines[0], "\"error\":\"parse_error\""))
      << R.Lines[0];
  // An unknown app is a request-level error with the id echoed back.
  EXPECT_TRUE(contains(R.Lines[1], "\"ok\":false")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[1], "\"id\":\"bad-app\"")) << R.Lines[1];
  // The server survived both and answered the valid request.
  EXPECT_TRUE(contains(R.Lines[2], "\"id\":\"after\"")) << R.Lines[2];
  EXPECT_TRUE(contains(R.Lines[2], "\"ok\":true")) << R.Lines[2];
}

TEST(CfvServeE2e, RepliesStayInSubmissionOrder) {
  // Two workers let the light request on another dataset finish long
  // before the cold one ahead of it, and the malformed line is answered
  // without running at all -- yet stdin replies leave in submission
  // order (only TCP connections get them as they complete).
  std::ostringstream In;
  In << "{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\","
        "\"scale\":0.4,\"iters\":2,\"id\":\"cold\"}\n";
  In << "{\"app\":\"wcc\",\"dataset\":\"amazon0312-sim\","
        "\"scale\":0.05,\"id\":\"light\"}\n";
  In << "this is not json\n";
  const ServeRun R = runServe(In.str(), "--workers 2");

  ASSERT_EQ(R.ExitCode, 0);
  ASSERT_EQ(R.Lines.size(), 3u);
  EXPECT_TRUE(contains(R.Lines[0], "\"id\":\"cold\"")) << R.Lines[0];
  EXPECT_TRUE(contains(R.Lines[0], "\"ok\":true")) << R.Lines[0];
  EXPECT_TRUE(contains(R.Lines[1], "\"id\":\"light\"")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[1], "\"ok\":true")) << R.Lines[1];
  EXPECT_TRUE(contains(R.Lines[2], "\"error\":\"parse_error\""))
      << R.Lines[2];
}

TEST(CfvServeE2e, StatsReportsCacheCounters) {
  // Interactive: reading each response synchronizes with the worker, so
  // by the time stats is asked the counters are deterministic.
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  S.send(std::string(kPagerank) + "}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send(std::string(kPagerank) + "}");
  EXPECT_TRUE(contains(S.recv(), "\"cache_hit\":true"));
  S.send("{\"cmd\":\"stats\"}");
  const std::string Stats = S.recv();
  EXPECT_TRUE(contains(Stats, "\"cache_hits\":1")) << Stats;
  EXPECT_TRUE(contains(Stats, "\"cache_misses\":1")) << Stats;
  EXPECT_TRUE(contains(Stats, "\"cache_entries\":1")) << Stats;
  EXPECT_EQ(S.shutdown(), 0);
}

TEST(CfvServeE2e, StatsAnswersImmediatelyMidLoad) {
  // A cold request at a heavier scale keeps the worker busy loading for
  // a while; the stats line sent right behind it must be answered
  // first -- introspection does not queue behind work.
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  S.send("{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\","
         "\"scale\":0.6,\"iters\":2,\"id\":\"slow\"}");
  S.send("{\"cmd\":\"stats\"}");
  const std::string First = S.recv();
  EXPECT_TRUE(contains(First, "\"cache_hits\""))
      << "stats must answer before the in-flight request: " << First;
  EXPECT_FALSE(contains(First, "\"id\":\"slow\"")) << First;
  // The merged registry rides along in the stats response.
  EXPECT_TRUE(contains(First, "\"metrics\":{")) << First;
  EXPECT_TRUE(contains(First, "\"counters\"")) << First;
  EXPECT_TRUE(contains(First, "\"gauges\"")) << First;
  EXPECT_TRUE(contains(First, "\"histograms\"")) << First;
  // The request still completes and answers afterwards.
  const std::string Second = S.recv();
  EXPECT_TRUE(contains(Second, "\"id\":\"slow\"")) << Second;
  EXPECT_TRUE(contains(Second, "\"ok\":true")) << Second;
  EXPECT_EQ(S.shutdown(), 0);
}

// The registry-content tests need the subsystem compiled in; the test
// binary and cfv_serve share one build tree, so this flag matches the
// server's.  (The stats/metrics verbs themselves exist either way --
// the compiled-out registry renders the same empty schema.)
#ifndef CFV_OBS
#define CFV_OBS 1
#endif
#if CFV_OBS

TEST(CfvServeE2e, StatsCarriesKernelDistributionsAfterARun) {
  // After one completed invec run the registry must hold the kernel
  // conflict telemetry (D1 / lane-utilization histograms) and the
  // request-level series -- the acceptance shape of the stats verb.
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  // invec records the D1 distribution; mask records lane utilization.
  S.send(std::string(kPagerank) + ",\"version\":\"invec\"}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send(std::string(kPagerank) + ",\"version\":\"mask\"}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send("{\"cmd\":\"stats\"}");
  const std::string Stats = S.recv();
  EXPECT_TRUE(contains(Stats, "cfv_kernel_d1_lanes")) << Stats;
  EXPECT_TRUE(contains(Stats, "cfv_kernel_useful_lanes")) << Stats;
  EXPECT_TRUE(contains(Stats, "cfv_requests_total")) << Stats;
  EXPECT_TRUE(contains(Stats, "cfv_run_kernel_seconds")) << Stats;
  EXPECT_TRUE(contains(Stats, "\"p99\":")) << Stats;
  EXPECT_EQ(S.shutdown(), 0);
}

TEST(CfvServeE2e, MetricsVerbReturnsPrometheusText) {
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  S.send(std::string(kPagerank) + "}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send("{\"cmd\":\"metrics\"}");
  const std::string M = S.recv();
  EXPECT_TRUE(contains(M, "\"ok\":true")) << M;
  EXPECT_TRUE(contains(M, "\"prometheus\":\"")) << M;
  // The exposition text rides JSON-escaped: newlines as \n literals.
  EXPECT_TRUE(contains(M, "# TYPE cfv_requests_total counter")) << M;
  EXPECT_TRUE(contains(M, "\\n")) << M;
  EXPECT_EQ(S.shutdown(), 0);
}

#endif // CFV_OBS

TEST(CfvServeE2e, QueueFullAnswersUnavailable) {
  // One-deep queue and a flood of requests: the reader admits them far
  // faster than the worker can serve them, so most must come back as
  // structured unavailable responses -- and every line gets an answer.
  std::ostringstream In;
  constexpr int N = 8;
  for (int I = 0; I < N; ++I)
    In << kPagerank << ",\"id\":\"q" << I << "\"}\n";
  In << "{\"cmd\":\"shutdown\"}\n";
  const ServeRun R = runServe(In.str(), "--queue-depth 1");

  ASSERT_EQ(R.ExitCode, 0);
  ASSERT_EQ(R.Lines.size(), static_cast<size_t>(N + 1));
  int Ok = 0, Unavailable = 0;
  for (int I = 0; I < N; ++I) {
    if (contains(R.Lines[I], "\"ok\":true"))
      ++Ok;
    if (contains(R.Lines[I], "\"error\":\"unavailable\""))
      ++Unavailable;
  }
  EXPECT_GE(Ok, 1);
  EXPECT_GE(Unavailable, 1) << "backpressure must reject, not stall";
  EXPECT_EQ(Ok + Unavailable, N);
}

TEST(CfvServeE2e, SigtermDrainsGracefully) {
  // SIGTERM is the supervisor's "wrap it up": stop admitting, answer
  // everything in flight, flush, and exit 0 -- never a killed worker or
  // a silently dropped response.
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  S.send(std::string(kPagerank) + ",\"id\":\"pre\"}");
  const std::string Pre = S.recv();
  EXPECT_TRUE(contains(Pre, "\"id\":\"pre\"")) << Pre;
  EXPECT_TRUE(contains(Pre, "\"ok\":true")) << Pre;

  ASSERT_EQ(::kill(S.pid(), SIGTERM), 0);
  // The drain epilogue closes stdout; waitExit() sees EOF and reaps.
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(CfvServeE2e, SigtermStillAnswersInFlightRequest) {
  InteractiveServe S;
  ASSERT_TRUE(S.alive());
  // A round-trip first: proves the server is up with its signal handlers
  // installed before we deliver SIGTERM.
  S.send(std::string(kPagerank) + ",\"id\":\"warm\"}");
  ASSERT_TRUE(contains(S.recv(), "\"id\":\"warm\""));
  // A heavier cold load keeps the worker busy while the signal lands.
  S.send("{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\","
         "\"scale\":0.4,\"iters\":2,\"id\":\"inflight\"}");
  ::usleep(100 * 1000); // let the reader admit it before the signal
  ASSERT_EQ(::kill(S.pid(), SIGTERM), 0);
  // The admitted request still gets its one structured reply (either a
  // completed result or a structured failure -- but never silence).
  const std::string R = S.recv();
  EXPECT_TRUE(contains(R, "\"id\":\"inflight\"")) << R;
  EXPECT_TRUE(contains(R, "\"ok\":")) << R;
  EXPECT_EQ(S.waitExit(), 0);
}

TEST(CfvServeE2e, FaultsFlagInjectsStructuredFailures) {
  // cache.alloc_fail:always makes every dataset load fail at the
  // injected allocation; the server must answer each request with a
  // structured error and keep serving.
  std::ostringstream In;
  In << kPagerank << ",\"id\":\"f1\"}\n";
  In << kPagerank << ",\"id\":\"f2\"}\n";
  In << "{\"cmd\":\"shutdown\"}\n";
  const ServeRun R = runServe(In.str(), "--faults cache.alloc_fail:always");

  ASSERT_EQ(R.ExitCode, 0);
  ASSERT_EQ(R.Lines.size(), 3u);
  for (int I = 0; I < 2; ++I) {
#if CFV_FAULTS
    EXPECT_TRUE(contains(R.Lines[I], "\"ok\":false")) << R.Lines[I];
    EXPECT_TRUE(contains(R.Lines[I], "injected allocation failure") ||
                contains(R.Lines[I], "circuit open"))
        << R.Lines[I];
#else
    // Compiled out: the spec still validates, but no point ever fires.
    EXPECT_TRUE(contains(R.Lines[I], "\"ok\":true")) << R.Lines[I];
#endif
  }
  EXPECT_TRUE(contains(R.Lines[2], "\"bye\":true")) << R.Lines[2];
}

TEST(CfvServeE2e, BadFaultsSpecIsAUsageError) {
  const ServeRun R = runServe("", "--faults cache.alloc_fail:sometimes");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_TRUE(R.Lines.empty());
}

TEST(CfvServeE2e, CacheBudgetIsHonored) {
  // A tiny byte budget (1 MB) forces eviction between the two datasets;
  // the stats line must show a bounded resident size.  Interactive so
  // the stats question follows the completed evictions, not the queue.
  ::setenv("CFV_CACHE_BYTES", "1000000", 1);
  InteractiveServe S;
  ::unsetenv("CFV_CACHE_BYTES");
  ASSERT_TRUE(S.alive());
  S.send(std::string(kPagerank) + "}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send("{\"app\":\"wcc\",\"dataset\":\"amazon0312-sim\",\"scale\":0.05}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send(std::string(kPagerank) + "}");
  EXPECT_TRUE(contains(S.recv(), "\"ok\":true"));
  S.send("{\"cmd\":\"stats\"}");
  const std::string Stats = S.recv();
  EXPECT_TRUE(contains(Stats, "\"cache_entries\":1")) << Stats;
  EXPECT_EQ(S.shutdown(), 0);
}

} // namespace

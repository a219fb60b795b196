//===- tests/cfv_run_cli_test.cpp - cfv_run argument handling --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Drives the installed cfv_run binary (path injected as CFV_RUN_BIN by
// CMake) in subprocesses: bad invocations must exit 2 with usage text,
// bad inputs must exit nonzero with a structured error, valid runs
// under both --backend values must exit 0, and --json reports the same
// checksum an in-process run computes.
//
//===----------------------------------------------------------------------===//

#include "core/Api.h"
#include "graph/Io.h"
#include "util/Prng.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/wait.h>

using namespace cfv;

// The CMake-level kill switch only defines CFV_OBS when turning it OFF;
// default-on matches the headers so the observability expectations below
// track the build of the tool under test.
#ifndef CFV_OBS
#define CFV_OBS 1
#endif

namespace {

#ifndef CFV_RUN_BIN
#error "CFV_RUN_BIN must be defined to the cfv_run binary path"
#endif

/// Runs `cfv_run <Args>` with stdout/stderr discarded; returns the exit
/// code (or -1 if the child did not exit normally).
int runCli(const std::string &Args, const std::string &EnvPrefix = "") {
  const std::string Cmd =
      EnvPrefix + " \"" + CFV_RUN_BIN + "\" " + Args + " >/dev/null 2>&1";
  const int Rc = std::system(Cmd.c_str());
  if (Rc == -1 || !WIFEXITED(Rc))
    return -1;
  return WEXITSTATUS(Rc);
}

/// Writes a tiny valid weighted SNAP file and returns its path.
std::string writeTinyGraph() {
  const std::string Path = ::testing::TempDir() + "cfv_cli_tiny.txt";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  std::fputs("# tiny test graph\n", F);
  for (int I = 0; I < 32; ++I)
    std::fprintf(F, "%d\t%d\t%.1f\n", I % 8, (I * 3 + 1) % 8,
                 1.0f + float(I % 5));
  std::fclose(F);
  return Path;
}

} // namespace

TEST(CfvRunCli, NoArgumentsShowsUsage) { EXPECT_EQ(runCli(""), 2); }

TEST(CfvRunCli, UnknownAppShowsUsage) { EXPECT_EQ(runCli("frobnicate"), 2); }

TEST(CfvRunCli, UnknownFlagShowsUsage) {
  EXPECT_EQ(runCli("pagerank --no-such-flag"), 2);
}

TEST(CfvRunCli, MissingFlagValueShowsUsage) {
  EXPECT_EQ(runCli("pagerank --iters"), 2);
  EXPECT_EQ(runCli("pagerank --backend"), 2);
}

TEST(CfvRunCli, MalformedNumericFlagShowsUsage) {
  EXPECT_EQ(runCli("pagerank --iters banana"), 2);
  EXPECT_EQ(runCli("pagerank --iters 5x"), 2);
  EXPECT_EQ(runCli("pagerank --scale 1.0.0"), 2);
}

TEST(CfvRunCli, UnknownBackendShowsUsage) {
  EXPECT_EQ(runCli("pagerank --backend sse2"), 2);
}

TEST(CfvRunCli, UnknownDatasetFailsCleanly) {
  EXPECT_EQ(runCli("pagerank --dataset no-such-graph"), 2);
}

TEST(CfvRunCli, MissingFileFailsCleanly) {
  EXPECT_EQ(runCli("pagerank --file /nonexistent/graph.txt"), 1);
}

TEST(CfvRunCli, RunsUnderBothBackends) {
  const std::string G = writeTinyGraph();
  const std::string Base = "pagerank --file " + G + " --iters 3";
  EXPECT_EQ(runCli(Base + " --backend scalar"), 0);
  // On a host without AVX-512 this exercises the graceful fallback.
  EXPECT_EQ(runCli(Base + " --backend avx512"), 0);
  EXPECT_EQ(runCli(Base, "CFV_BACKEND=scalar"), 0);
  EXPECT_EQ(runCli(Base, "CFV_BACKEND=avx512"), 0);
  std::remove(G.c_str());
}

TEST(CfvRunCli, InvalidThreadsShowsUsage) {
  EXPECT_EQ(runCli("pagerank --threads -1"), 2);
  EXPECT_EQ(runCli("pagerank --threads banana"), 2);
  EXPECT_EQ(runCli("pagerank --threads"), 2);
}

TEST(CfvRunCli, ThreadedAndJsonRunsPass) {
  const std::string G = writeTinyGraph();
  const std::string Base = "pagerank --file " + G + " --iters 3";
  EXPECT_EQ(runCli(Base + " --threads 2"), 0);
  EXPECT_EQ(runCli(Base + " --threads 0"), 0); // all hardware threads
  EXPECT_EQ(runCli(Base + " --threads 2 --json"), 0);
  EXPECT_EQ(runCli(Base, "CFV_THREADS=3"), 0);
  std::remove(G.c_str());
}

TEST(CfvRunCli, JsonChecksumRoundTrips) {
  // --json must print the checksum with enough digits to reproduce the
  // double exactly: parse it back and compare with the same run done in
  // process (scalar backend, one thread, the seed-7 input vector).
  const std::string G = writeTinyGraph();
  const std::string Cmd = std::string("\"") + CFV_RUN_BIN +
                          "\" spmv --file " + G +
                          " --iters 2 --threads 1 --backend scalar"
                          " --seed 7 --json 2>/dev/null";
  std::FILE *P = popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Out;
  char Buf[512];
  while (std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  ASSERT_EQ(pclose(P), 0) << Out;
  const char *Key = "\"checksum\":";
  const size_t At = Out.find(Key);
  ASSERT_NE(At, std::string::npos) << Out;
  const double Printed = std::strtod(Out.c_str() + At + std::strlen(Key),
                                     nullptr);

  Expected<graph::EdgeList> E = graph::readSnapEdgeList(G);
  ASSERT_TRUE(E.ok());
  Xoshiro256 Rng(7);
  AlignedVector<float> X(E->NumNodes);
  for (float &V : X)
    V = Rng.nextFloat();
  AppRequest R;
  R.App = AppId::Spmv;
  R.Graph = &*E;
  R.X = X.data();
  R.Options.Backend = core::BackendChoice::Scalar;
  R.Options.Threads = 1;
  R.Options.MaxIterations = 2;
  const Expected<AppResult> Res = cfv::run(R);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Printed, resultChecksum(*Res)) << Out;
  std::remove(G.c_str());
}

TEST(CfvRunCli, NewAppsRun) {
  const std::string G = writeTinyGraph();
  EXPECT_EQ(runCli("pagerank64 --file " + G + " --iters 3"), 0);
  EXPECT_EQ(runCli("rbk --file " + G + " --iters 2 --threads 2"), 0);
  std::remove(G.c_str());
}

TEST(CfvRunCli, ValidatedInvecRunPasses) {
  const std::string G = writeTinyGraph();
  EXPECT_EQ(runCli("pagerank --file " + G + " --iters 3 --version invec",
                   "CFV_VALIDATE=1"),
            0);
  std::remove(G.c_str());
}

namespace {

/// Reads a whole file ("" when missing).
std::string slurp(const std::string &Path) {
  std::string Out;
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return Out;
  int C;
  while ((C = std::fgetc(F)) != EOF)
    Out.push_back(static_cast<char>(C));
  std::fclose(F);
  return Out;
}

bool has(const std::string &S, const std::string &Needle) {
  return S.find(Needle) != std::string::npos;
}

} // namespace

#if CFV_OBS

TEST(CfvRunCli, TraceFlagWritesChromeTracingJson) {
  const std::string G = writeTinyGraph();
  const std::string Trace = ::testing::TempDir() + "cfv_cli_trace.json";
  std::remove(Trace.c_str());
  EXPECT_EQ(runCli("pagerank --file " + G + " --iters 3 --version invec"
                   " --trace " + Trace),
            0);
  const std::string J = slurp(Trace);
  ASSERT_FALSE(J.empty()) << "--trace must create " << Trace;
  // The chrome://tracing envelope with complete events from the run
  // pipeline: the tool's load span plus the engine's kernel spans.
  EXPECT_TRUE(has(J, "\"traceEvents\"")) << J;
  EXPECT_TRUE(has(J, "\"ph\":\"X\"")) << J;
  EXPECT_TRUE(has(J, "\"name\":\"tool:load\"")) << J;
  EXPECT_TRUE(has(J, "engine:run")) << J;
  std::remove(Trace.c_str());
  std::remove(G.c_str());
}

TEST(CfvRunCli, TraceFlagToUnwritablePathFails) {
  const std::string G = writeTinyGraph();
  EXPECT_EQ(runCli("pagerank --file " + G +
                   " --iters 2 --trace /nonexistent-dir/t.json"),
            1);
  std::remove(G.c_str());
}

#endif // CFV_OBS

TEST(CfvRunCli, MetricsFlagDumpsPrometheusToStderr) {
  const std::string G = writeTinyGraph();
  const std::string Err = ::testing::TempDir() + "cfv_cli_metrics.txt";
  const std::string Cmd = std::string("\"") + CFV_RUN_BIN +
                          "\" pagerank" + " --file " + G +
                          " --iters 3 --version invec --metrics" +
                          " >/dev/null 2>" + Err;
  const int Rc = std::system(Cmd.c_str());
  ASSERT_TRUE(Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0);
  const std::string M = slurp(Err);
#if CFV_OBS
  EXPECT_TRUE(has(M, "# TYPE cfv_runs_total counter")) << M;
  EXPECT_TRUE(has(M, "cfv_runs_total{app=\"pagerank\"} 1")) << M;
  EXPECT_TRUE(has(M, "# TYPE cfv_kernel_d1_lanes histogram")) << M;
  EXPECT_TRUE(has(M, "le=\"+Inf\"")) << M;
#else
  EXPECT_TRUE(has(M, "compiled out")) << M;
#endif
  std::remove(Err.c_str());
  std::remove(G.c_str());
}

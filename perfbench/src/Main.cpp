//===- perfbench/src/Main.cpp - Repo benchmark entry point ----------------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
//   cfv_perfbench --workload paper-batch|serve-warm
//                 --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload for S seconds and prints, as the last line of
// stdout, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  A human report of every number goes to stderr.  Exit codes:
// 0 measured; 1 set-up or run failure, or an output that disagreed with
// its reference (the JSON line still printed, correct=false); 2 usage;
// 3 invalid measurement (generator fell behind), nothing printed.
//
// The process refuses to run when any CFV_* variable other than
// CFV_FAULTS (the sensitivity self-check arms kernel.slow_tile through
// it, via perfbench/run.py --fault) is in its environment: every
// workload runs the default configuration.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

extern char **environ;

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "cfv_perfbench: %s\nusage: cfv_perfbench --workload "
               "paper-batch|serve-warm --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + Flag;
      return false;
    }
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      if (!*V || *End) {
        Err = "bad --seed";
        return false;
      }
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(A.Seconds > 0 && A.Seconds <= 600)) {
        Err = "bad --seconds";
        return false;
      }
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0) {
        Err = "--trace takes 0 or 1";
        return false;
      }
      A.Traced = V[0] == '1';
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else {
      Err = "unknown flag " + Flag;
      return false;
    }
  }
  if (!HaveWorkload)
    Err = "--workload is required";
  return HaveWorkload;
}

/// The first CFV_* variable this process did not set itself, or "".
std::string foreignCfvVar() {
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "CFV_", 4) == 0 &&
        std::strncmp(*E, "CFV_FAULTS=", 11) != 0)
      return std::string(*E).substr(0, std::strcspn(*E, "="));
  return "";
}

void printJson(const Outcome &Out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              Out.Mismatched == 0 ? "true" : "false",
              static_cast<long long>(Out.Attempted),
              static_cast<long long>(Out.Failed));
  bool First = true;
  for (const Metric &M : Out.Metrics) {
    if (!M.Listed)
      continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", M.Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err))
    return usage(Err.c_str());
  const std::string Foreign = foreignCfvVar();
  if (!Foreign.empty()) {
    std::fprintf(stderr,
                 "cfv_perfbench: refusing to run with %s set: the benchmark "
                 "measures the default configuration\n",
                 Foreign.c_str());
    return 2;
  }

  Tracer T(A.Traced);
  Outcome Out;
  int Rc;
  if (A.Workload == "paper-batch")
    Rc = runPaperBatch(A, T, Out);
  else if (A.Workload == "serve-warm")
    Rc = runServe(A, T, Out);
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  if (Rc != 0)
    return Rc;

  if (A.Traced) {
    std::fprintf(stderr, "layer self time (s):");
    for (const auto &L : T.selfSeconds())
      std::fprintf(stderr, " %s=%.4f", L.first.c_str(), L.second);
    std::fprintf(stderr, "  [%zu spans]\n", T.size());
    if (!A.TraceOut.empty() && !T.writeChrome(A.TraceOut))
      std::fprintf(stderr, "cfv_perfbench: cannot write %s\n",
                   A.TraceOut.c_str());
  }
  for (const Metric &M : Out.Metrics)
    std::fprintf(stderr, "  %-44s %14.6g %s%s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str(), M.Listed ? "" : "  (report only)");
  std::fprintf(stderr, "attempted %lld, failed %lld, mismatched %lld\n",
               static_cast<long long>(Out.Attempted),
               static_cast<long long>(Out.Failed),
               static_cast<long long>(Out.Mismatched));

  if (!Out.Valid) {
    std::fprintf(stderr, "cfv_perfbench: invalid run: %s\n",
                 Out.InvalidReason.c_str());
    return 3;
  }
  printJson(Out);
  return Out.Mismatched == 0 ? 0 : 1;
}

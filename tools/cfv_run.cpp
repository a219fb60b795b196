//===- tools/cfv_run.cpp - Command-line application driver ----------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Runs any of the library's applications on a named synthetic dataset or
// a SNAP edge-list file, with any execution strategy -- the command-line
// counterpart of the original artifact's run.sh scripts.  The tool is a
// thin shell over the unified cfv::run facade (core/Api.h): flags become
// an AppRequest, the AppResult becomes a report.
//
//   cfv_run pagerank --dataset higgs-twitter-sim --version invec
//   cfv_run sssp     --file soc-pokec.txt --version mask --source 3
//   cfv_run wcc      --dataset amazon0312-sim --version grouping
//   cfv_run moldyn   --cells 10 --version invec --iters 20
//   cfv_run agg      --dist zipf --cardinality 65536 --rows 4000000
//                    --version bucket_invec     (one line)
//   cfv_run spmv     --dataset higgs-twitter-sim --version invec
//   cfv_run pagerank --threads 8 --json
//
// Run `cfv_run --help` for the full grammar.
//
//===----------------------------------------------------------------------===//

#include "core/Api.h"
#include "core/Dispatch.h"
#include "core/ParallelEngine.h"
#include "graph/Datasets.h"
#include "graph/Io.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/Json.h"
#include "util/Prng.h"
#include "util/Timer.h"
#include "workload/KeyGen.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

using namespace cfv;

namespace {

[[noreturn]] void usage(int Code) {
  std::fprintf(
      Code ? stderr : stdout,
      "usage: cfv_run <app> [options]\n"
      "\n"
      "apps:\n"
      "  pagerank | pagerank64 | sssp | sswp | wcc | bfs | moldyn | agg |\n"
      "  rbk | spmv | mesh\n"
      "\n"
      "graph inputs (pagerank/pagerank64/sssp/sswp/wcc/bfs/rbk/spmv):\n"
      "  --dataset <name>     higgs-twitter-sim | soc-pokec-sim |\n"
      "                       amazon0312-sim   (default higgs-twitter-sim)\n"
      "  --file <path>        SNAP edge list instead of a synthetic input\n"
      "  --scale <x>          synthetic workload scale (default $CFV_SCALE)\n"
      "\n"
      "strategy:\n"
      "  --version <v>        serial | tiling_serial | grouping | mask |\n"
      "                       invec (graph apps; default invec)\n"
      "                       serial | grouping | mask | invec (moldyn/mesh)\n"
      "                       serial | mask | bucket_mask | invec |\n"
      "                       bucket_invec (agg)\n"
      "                       serial | csr_serial | mask | invec |\n"
      "                       grouping (spmv)\n"
      "                       (historical per-app spellings like\n"
      "                       coo_invec / linear_mask still accepted)\n"
      "\n"
      "execution:\n"
      "  --backend <b>        scalar | avx2 | avx512 | auto (default: best\n"
      "                       available; CFV_BACKEND=<b> is equivalent;\n"
      "                       requesting a tier this CPU lacks degrades to\n"
      "                       the next best with a note)\n"
      "  --backend list       print the compiled/available tier matrix and\n"
      "                       exit\n"
      "  --threads <n>        worker threads for the parallel engine\n"
      "                       (n >= 1; 0 = all hardware threads; default:\n"
      "                       CFV_THREADS, else 1)\n"
      "  --json               emit one JSON object instead of the report\n"
      "\n"
      "observability:\n"
      "  --trace <file>       record load/inspector/kernel/merge spans and\n"
      "                       write chrome://tracing JSON to <file> (load\n"
      "                       it at chrome://tracing or ui.perfetto.dev)\n"
      "  --metrics            after the run, dump the metrics registry as\n"
      "                       Prometheus text to stderr (stdout keeps the\n"
      "                       report/--json contract)\n"
      "\n"
      "app options:\n"
      "  --source <v>         source vertex (sssp/sswp/bfs; default 0)\n"
      "  --iters <n>          iteration cap / moldyn steps / spmv-rbk\n"
      "                       repeats (default per app)\n"
      "  --cells <n>          moldyn FCC cells per edge (default 8)\n"
      "  --rows <n>           agg input rows (default 4000000)\n"
      "  --cardinality <n>    agg group count (default 65536)\n"
      "  --dist <d>           agg keys: hh | zipf | mc | uniform\n"
      "  --seed <n>           generator seed override\n"
      "\n"
      "environment:\n"
      "  CFV_BACKEND=<b>      backend override (see --backend)\n"
      "  CFV_THREADS=<n>      worker thread default (see --threads)\n"
      "  CFV_VALIDATE=1       re-check every in-vector reduction batch\n"
      "                       against scalar-order semantics (slow)\n"
      "  CFV_SCALE=<x>        synthetic workload scale\n");
  std::exit(Code);
}

/// `--backend list`: render the tier matrix (every known tier, compiled
/// in or not) plus the tier auto-selection would pick, then exit.
[[noreturn]] void listBackends() {
  std::printf("%-8s %5s  %-22s %-8s %s\n", "backend", "lanes", "conflict",
              "compiled", "available");
  for (const core::BackendInfo &I : core::backendInfos())
    std::printf("%-8s %5d  %-22s %-8s %s%s%s\n", I.Name, I.Lanes, I.Conflict,
                I.Compiled ? "yes" : "no", I.Available ? "yes" : "no",
                I.Available ? "" : "  -- ",
                I.Available ? "" : I.Unavailable ? I.Unavailable : "");
  std::printf("selected: %s\n", core::dispatch().Name);
  std::exit(0);
}

struct Options {
  std::string App;
  std::string Dataset = "higgs-twitter-sim";
  std::string File;
  std::string Version; ///< empty = per-app default (invec where available)
  std::string Dist = "zipf";
  double Scale = graph::envScale();
  int32_t Source = 0;
  int Iters = -1;
  int Threads = 0; ///< 0 = defer to CFV_THREADS unless --threads given
  int Cells = 8;
  int64_t Rows = 4000000;
  int64_t Cardinality = 65536;
  uint64_t Seed = 0xCF5EEDULL;
  core::BackendChoice Backend = core::BackendChoice::Auto;
  bool Json = false;
  std::string TraceFile; ///< empty = tracing stays off
  bool Metrics = false;
};

/// Strict numeric flag parsing: the whole token must convert, and range
/// errors are fatal rather than silently saturating like atoi.
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

uint64_t parseSeedFlag(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text, &End, 0);
  if (End == Text || *End != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s needs an unsigned integer, got '%s'\n",
                 Flag.c_str(), Text);
    usage(2);
  }
  return V;
}

double parseFloatFlag(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s needs a number, got '%s'\n",
                 Flag.c_str(), Text);
    usage(2);
  }
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage(2);
  Options O;
  O.App = Argv[1];
  if (O.App == "--help" || O.App == "-h")
    usage(0);
  // `cfv_run --backend list` works without an app name: listing the tier
  // matrix is pure introspection.
  if (O.App == "--backend" && Argc >= 3 && std::string(Argv[2]) == "list")
    listBackends();
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        usage(2);
      }
      return Argv[++I];
    };
    if (Arg == "--dataset")
      O.Dataset = Value();
    else if (Arg == "--file")
      O.File = Value();
    else if (Arg == "--version")
      O.Version = Value();
    else if (Arg == "--dist")
      O.Dist = Value();
    else if (Arg == "--backend") {
      const std::string B = Value();
      if (B == "list")
        listBackends(); // prints the matrix and exits
      if (B == "auto") {
        O.Backend = core::BackendChoice::Auto;
        continue;
      }
      const Expected<core::BackendKind> K = core::parseBackendKind(B);
      if (!K.ok()) {
        std::fprintf(stderr, "error: %s\n", K.status().toString().c_str());
        usage(2);
      }
      O.Backend = *K == core::BackendKind::Scalar ? core::BackendChoice::Scalar
                  : *K == core::BackendKind::Avx2 ? core::BackendChoice::Avx2
                                                  : core::BackendChoice::Avx512;
    } else if (Arg == "--threads") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 0 || N > core::kMaxThreads) {
        std::fprintf(stderr,
                     "error: --threads needs a value in [0, %d], got %lld\n",
                     core::kMaxThreads, N);
        usage(2);
      }
      O.Threads = N == 0 ? core::hardwareThreads() : static_cast<int>(N);
    } else if (Arg == "--json")
      O.Json = true;
    else if (Arg == "--trace")
      O.TraceFile = Value();
    else if (Arg == "--metrics")
      O.Metrics = true;
    else if (Arg == "--scale")
      O.Scale = parseFloatFlag(Arg, Value());
    else if (Arg == "--source")
      O.Source = static_cast<int32_t>(parseIntFlag(Arg, Value()));
    else if (Arg == "--iters")
      O.Iters = static_cast<int>(parseIntFlag(Arg, Value()));
    else if (Arg == "--cells")
      O.Cells = static_cast<int>(parseIntFlag(Arg, Value()));
    else if (Arg == "--rows")
      O.Rows = parseIntFlag(Arg, Value());
    else if (Arg == "--cardinality")
      O.Cardinality = parseIntFlag(Arg, Value());
    else if (Arg == "--seed")
      O.Seed = parseSeedFlag(Arg, Value());
    else if (Arg == "--help" || Arg == "-h")
      usage(0);
    else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage(2);
    }
  }
  return O;
}

/// Failure reporting honours the output contract: under --json the tool
/// emits one machine-readable error record on stdout (same channel the
/// success object would use) so pipelines never have to scrape stderr,
/// then exits with the given code.
[[noreturn]] void fail(const Options &O, const Status &S, int Code) {
  std::fprintf(stderr, "error: %s\n", S.toString().c_str());
  if (O.Json) {
    json::ObjectWriter J;
    J.field("ok", false)
        .field("error", errorCodeName(S.code()))
        .field("detail", S.message());
    std::printf("%s\n", J.str().c_str());
  }
  std::exit(Code);
}

graph::EdgeList loadGraph(const Options &O, bool Weighted) {
  if (!O.File.empty()) {
    auto G = graph::readSnapEdgeList(O.File);
    if (!G.ok())
      fail(O, G.status(), 1);
    if (Weighted && !G->isWeighted()) {
      // Attach deterministic weights so path algorithms work on
      // unweighted SNAP files, as the paper's artifact does.
      Xoshiro256 Rng(O.Seed);
      G->Weight.resize(G->numEdges());
      for (float &W : G->Weight)
        W = 1.0f + Rng.nextFloat() * 63.0f;
      std::fprintf(stderr,
                   "note: attached uniform [1,64) weights to '%s'\n",
                   O.File.c_str());
    }
    return std::move(*G);
  }
  auto D = graph::makeGraphDataset(O.Dataset, O.Scale, Weighted);
  if (!D.ok())
    fail(O, D.status(), 2);
  return std::move(D->Edges);
}

// The load / kernel / prep split and the field names match cfv_serve's
// response schema, so the same scripts can digest either tool's output.
void printJson(const AppResult &R, double LoadSeconds) {
  std::printf("{\"app\":\"%s\",\"version\":\"%s\",\"backend\":\"%s\","
              "\"threads\":%d,\"iterations\":%d,"
              "\"load_seconds\":%.6f,\"kernel_seconds\":%.6f,"
              "\"prep_seconds\":%.6f,"
              "\"simd_util\":%.4f,\"mean_d1\":%.4f,"
              "\"edges_processed\":%lld,\"checksum\":%.17g}\n",
              appIdName(R.App), R.VersionName.c_str(),
              core::backendName(R.Backend), R.Threads, R.Iterations,
              LoadSeconds, R.ComputeSeconds, R.PrepSeconds, R.SimdUtil,
              R.MeanD1, static_cast<long long>(R.EdgesProcessed),
              resultChecksum(R));
}

void printReport(const AppResult &R) {
  std::printf("%s %s: backend %s, %d thread%s\n", appIdName(R.App),
              R.VersionName.c_str(), core::backendName(R.Backend), R.Threads,
              R.Threads == 1 ? "" : "s");
  std::printf("  computing %.3fs  prep %.3fs  (%d iterations, %lld edge "
              "updates)\n",
              R.ComputeSeconds, R.PrepSeconds, R.Iterations,
              static_cast<long long>(R.EdgesProcessed));
  if (R.SimdUtil < 1.0)
    std::printf("  simd_util %.2f%%\n", R.SimdUtil * 100.0);
  if (R.MeanD1 > 0.0)
    std::printf("  mean D1 %.4f\n", R.MeanD1);
  switch (R.App) {
  case AppId::Moldyn:
    std::printf("  %d atoms, %lld pairs\n", R.Moldyn.Atoms,
                static_cast<long long>(R.Moldyn.Pairs));
    std::printf("  kinetic %.2f  potential %.2f\n", R.Moldyn.FinalKinetic,
                R.Moldyn.FinalPotential);
    break;
  case AppId::Agg:
    std::printf("  %lld groups, value sum %.4f\n",
                static_cast<long long>(R.Groups.size()), resultChecksum(R));
    break;
  case AppId::Rbk:
    std::printf("  invec %.3fs (checksum %.4f)\n", R.Rbk.InvecSeconds,
                R.Rbk.InvecChecksum);
    std::printf("  library-style %.3fs (checksum %.4f)\n",
                R.Rbk.ThrustLikeSeconds, R.Rbk.ThrustLikeChecksum);
    std::printf("  fused serial %.3fs (checksum %.4f)\n",
                R.Rbk.FusedSerialSeconds, R.Rbk.FusedSerialChecksum);
    break;
  case AppId::Spmv:
    std::printf("  |y|^2 %.4g\n", resultChecksum(R));
    break;
  case AppId::PageRank:
  case AppId::PageRank64:
    std::printf("  rank mass %.4f\n", resultChecksum(R));
    break;
  case AppId::Mesh:
    std::printf("  conserved total %.2f\n", resultChecksum(R));
    break;
  default:
    break;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  if (!O.TraceFile.empty())
    obs::Tracer::instance().setEnabled(true);

  const Expected<AppId> App = parseAppId(O.App);
  if (!App.ok()) {
    std::fprintf(stderr, "error: %s\n", App.status().toString().c_str());
    usage(2);
  }
  const Expected<AppVersion> Version =
      parseAppVersion(*App, O.Version.empty() ? "default" : O.Version);
  if (!Version.ok()) {
    std::fprintf(stderr, "error: %s\n", Version.status().toString().c_str());
    usage(2);
  }

  AppRequest R;
  R.App = *App;
  R.Version = *Version;
  R.Options.Backend = O.Backend;
  R.Options.Threads = O.Threads;
  if (O.Iters > 0)
    R.Options.MaxIterations = O.Iters;

  // Inputs the request borrows must outlive cfv::run.  Their preparation
  // is timed separately so the JSON output reports the same
  // load-vs-kernel split as cfv_serve's telemetry.
  WallTimer LoadTimer;
  graph::EdgeList G;
  AlignedVector<int32_t> Keys;
  AlignedVector<float> Vals;
  AlignedVector<float> X;
  apps::Mesh M;
  AlignedVector<float> U0;

  switch (*App) {
  case AppId::PageRank:
  case AppId::PageRank64:
  case AppId::Wcc:
  case AppId::Bfs:
  case AppId::Rbk:
    G = loadGraph(O, /*Weighted=*/false);
    R.Graph = &G;
    R.Source = O.Source;
    if (*App == AppId::Rbk && O.Iters <= 0)
      R.Options.MaxIterations = 10; // keep the default CLI run short
    break;
  case AppId::Sssp:
  case AppId::Sswp:
    G = loadGraph(O, /*Weighted=*/true);
    R.Graph = &G;
    R.Source = O.Source;
    break;
  case AppId::Spmv: {
    G = loadGraph(O, /*Weighted=*/true);
    R.Graph = &G;
    Xoshiro256 Rng(O.Seed);
    X.resize(G.NumNodes);
    for (float &E : X)
      E = Rng.nextFloat();
    R.X = X.data();
    if (O.Iters <= 0)
      R.Options.MaxIterations = 10; // historical cfv_run default repeats
    break;
  }
  case AppId::Moldyn:
    R.Moldyn.Cells = O.Cells;
    R.Moldyn.Seed = O.Seed;
    break;
  case AppId::Agg: {
    const std::map<std::string, workload::KeyDist> Dists = {
        {"hh", workload::KeyDist::HeavyHitter},
        {"zipf", workload::KeyDist::Zipf},
        {"mc", workload::KeyDist::MovingCluster},
        {"uniform", workload::KeyDist::Uniform}};
    const auto DistIt = Dists.find(O.Dist);
    if (DistIt == Dists.end()) {
      std::fprintf(stderr, "error: unknown distribution '%s'\n",
                   O.Dist.c_str());
      return 2;
    }
    if (O.Cardinality <= 0 || O.Cardinality > (int64_t(1) << 24) ||
        O.Rows <= 0) {
      std::fprintf(stderr,
                   "error: --cardinality must be in [1, 2^24] and --rows "
                   "positive\n");
      return 2;
    }
    Keys = workload::genKeys(DistIt->second, O.Rows,
                             static_cast<int32_t>(O.Cardinality), O.Seed);
    Vals = workload::genValues(O.Rows, O.Seed ^ 1);
    R.Keys = Keys.data();
    R.Vals = Vals.data();
    R.Rows = O.Rows;
    R.Cardinality = O.Cardinality;
    break;
  }
  case AppId::Mesh: {
    // Square grid sized from --cells (cells per edge, like moldyn).
    const int32_t Side = std::max(4, O.Cells * 16);
    M = apps::makeTriangulatedGrid(Side, Side, O.Seed);
    Xoshiro256 Rng(O.Seed ^ 2);
    U0.resize(M.NumCells);
    for (float &V : U0)
      V = Rng.nextFloat();
    R.MeshIn = &M;
    R.U0 = U0.data();
    R.Dt = 0.4f;
    break;
  }
  }
  const double LoadSeconds = LoadTimer.seconds();
  // The span carries the same number the report prints (no re-measuring).
  obs::Tracer::instance().recordAt("tool:load", "load",
                                   monotonicSeconds() - LoadSeconds,
                                   LoadSeconds);

  const Expected<AppResult> Result = cfv::run(R);
  if (!Result.ok())
    fail(O, Result.status(), 1);
  if (O.Json)
    printJson(*Result, LoadSeconds);
  else
    printReport(*Result);
  if (O.Metrics)
    std::fputs(obs::MetricsRegistry::instance().renderPrometheus().c_str(),
               stderr);
  if (!O.TraceFile.empty() &&
      !obs::Tracer::instance().writeChromeJson(O.TraceFile))
    return 1;
  return 0;
}

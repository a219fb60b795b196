//===- core/Api.cpp - The unified cfv::run facade -------------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "core/Api.h"

#include "core/ParallelEngine.h"
#include "graph/Prepared.h"
#include "obs/Kernel.h"
#include "obs/Trace.h"
#include "util/AlignedAlloc.h"
#include "util/Timer.h"

#include <cmath>
#include <utility>

using namespace cfv;

namespace {

constexpr int64_t kMaxCardinality = int64_t(1) << 24;

Status invalid(std::string Msg) {
  return Status::error(ErrorCode::InvalidArgument, std::move(Msg));
}

Status badVersion(AppId App, AppVersion V) {
  const char *Names[] = {"default",     "serial",      "tiling_serial",
                         "grouping",    "mask",        "invec",
                         "bucket_mask", "bucket_invec", "csr_serial"};
  return invalid(std::string("version '") +
                 Names[static_cast<int>(V)] + "' is not available for app '" +
                 appIdName(App) + "'");
}

/// Checks the graph input shared by the graph-consuming apps.
Status checkGraph(const AppRequest &R, bool NeedsWeights) {
  if (!R.Graph)
    return invalid(std::string(appIdName(R.App)) +
                   " requires AppRequest::Graph");
  if (R.Graph->NumNodes <= 0)
    return invalid("graph has no vertices");
  // An edgeless graph vacuously satisfies the weight requirement.
  if (NeedsWeights && R.Graph->numEdges() > 0 && !R.Graph->isWeighted())
    return invalid(std::string(appIdName(R.App)) +
                   " requires edge weights on the graph");
  return Status();
}

Expected<apps::PrVersion> mapPageRank(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::PrVersion::NontilingSerial;
  case AppVersion::TilingSerial:
    return apps::PrVersion::TilingSerial;
  case AppVersion::Grouping:
    return apps::PrVersion::TilingGrouping;
  case AppVersion::Mask:
    return apps::PrVersion::TilingMask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::PrVersion::TilingInvec;
  default:
    return badVersion(AppId::PageRank, V);
  }
}

Expected<apps::Pr64Version> mapPageRank64(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::Pr64Version::Serial;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::Pr64Version::Invec;
  default:
    return badVersion(AppId::PageRank64, V);
  }
}

Expected<apps::FrVersion> mapFrontier(AppId App, AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::FrVersion::NontilingSerial;
  case AppVersion::Mask:
    return apps::FrVersion::NontilingMask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::FrVersion::NontilingInvec;
  case AppVersion::Grouping:
    return apps::FrVersion::TilingGrouping;
  default:
    return badVersion(App, V);
  }
}

Expected<apps::MdVersion> mapMoldyn(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
  case AppVersion::TilingSerial:
    return apps::MdVersion::TilingSerial;
  case AppVersion::Grouping:
    return apps::MdVersion::TilingGrouping;
  case AppVersion::Mask:
    return apps::MdVersion::TilingMask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::MdVersion::TilingInvec;
  default:
    return badVersion(AppId::Moldyn, V);
  }
}

Expected<apps::AggVersion> mapAgg(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::AggVersion::LinearSerial;
  case AppVersion::Mask:
    return apps::AggVersion::LinearMask;
  case AppVersion::BucketMask:
    return apps::AggVersion::BucketMask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::AggVersion::LinearInvec;
  case AppVersion::BucketInvec:
    return apps::AggVersion::BucketInvec;
  default:
    return badVersion(AppId::Agg, V);
  }
}

Expected<apps::SpmvVersion> mapSpmv(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::SpmvVersion::CooSerial;
  case AppVersion::CsrSerial:
    return apps::SpmvVersion::CsrSerial;
  case AppVersion::Mask:
    return apps::SpmvVersion::CooMask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::SpmvVersion::CooInvec;
  case AppVersion::Grouping:
    return apps::SpmvVersion::CooGrouping;
  default:
    return badVersion(AppId::Spmv, V);
  }
}

Expected<apps::MeshVersion> mapMesh(AppVersion V) {
  switch (V) {
  case AppVersion::Serial:
    return apps::MeshVersion::Serial;
  case AppVersion::Mask:
    return apps::MeshVersion::Mask;
  case AppVersion::Default:
  case AppVersion::Invec:
    return apps::MeshVersion::Invec;
  case AppVersion::Grouping:
    return apps::MeshVersion::Grouping;
  default:
    return badVersion(AppId::Mesh, V);
  }
}

/// Copies the shared RunOptions base into a derived option struct,
/// restoring the app's own MaxIterations default when the request left
/// it at 0.
template <typename OptionsT>
void fillBase(OptionsT &O, const core::RunOptions &Base) {
  const int AppDefault = O.MaxIterations;
  static_cast<core::RunOptions &>(O) = Base;
  if (Base.MaxIterations <= 0)
    O.MaxIterations = AppDefault;
}

apps::FrApp frontierApp(AppId App) {
  switch (App) {
  case AppId::Sswp:
    return apps::FrApp::Sswp;
  case AppId::Wcc:
    return apps::FrApp::Wcc;
  case AppId::Bfs:
    return apps::FrApp::Bfs;
  default:
    return apps::FrApp::Sssp;
  }
}

} // namespace

const char *cfv::appIdName(AppId A) {
  switch (A) {
  case AppId::PageRank:
    return "pagerank";
  case AppId::PageRank64:
    return "pagerank64";
  case AppId::Sssp:
    return "sssp";
  case AppId::Sswp:
    return "sswp";
  case AppId::Wcc:
    return "wcc";
  case AppId::Bfs:
    return "bfs";
  case AppId::Moldyn:
    return "moldyn";
  case AppId::Agg:
    return "agg";
  case AppId::Rbk:
    return "rbk";
  case AppId::Spmv:
    return "spmv";
  case AppId::Mesh:
    return "mesh";
  }
  return "unknown";
}

Expected<AppId> cfv::parseAppId(const std::string &Name) {
  static const struct {
    const char *Name;
    AppId Id;
  } Table[] = {
      {"pagerank", AppId::PageRank}, {"pagerank64", AppId::PageRank64},
      {"sssp", AppId::Sssp},         {"sswp", AppId::Sswp},
      {"wcc", AppId::Wcc},           {"bfs", AppId::Bfs},
      {"moldyn", AppId::Moldyn},     {"agg", AppId::Agg},
      {"rbk", AppId::Rbk},           {"spmv", AppId::Spmv},
      {"mesh", AppId::Mesh},
  };
  for (const auto &E : Table)
    if (Name == E.Name)
      return E.Id;
  return invalid("unknown application '" + Name + "'");
}

Expected<AppVersion> cfv::parseAppVersion(AppId App, const std::string &Name) {
  static const struct {
    const char *Name;
    AppVersion V;
  } Table[] = {
      // Unified spellings.
      {"default", AppVersion::Default},
      {"serial", AppVersion::Serial},
      {"tiling_serial", AppVersion::TilingSerial},
      {"grouping", AppVersion::Grouping},
      {"mask", AppVersion::Mask},
      {"invec", AppVersion::Invec},
      {"bucket_mask", AppVersion::BucketMask},
      {"bucket_invec", AppVersion::BucketInvec},
      {"csr_serial", AppVersion::CsrSerial},
      // Historical per-app spellings (versionName outputs and the
      // original cfv_run vocabulary).
      {"nontiling_serial", AppVersion::Serial},
      {"nontiling_and_mask", AppVersion::Mask},
      {"nontiling_and_invec", AppVersion::Invec},
      {"tiling_and_grouping", AppVersion::Grouping},
      {"tiling_and_mask", AppVersion::Mask},
      {"tiling_and_invec", AppVersion::Invec},
      {"linear_serial", AppVersion::Serial},
      {"linear_mask", AppVersion::Mask},
      {"linear_invec", AppVersion::Invec},
      {"coo_serial", AppVersion::Serial},
      {"coo_mask", AppVersion::Mask},
      {"coo_invec", AppVersion::Invec},
      {"coo_grouping", AppVersion::Grouping},
  };
  for (const auto &E : Table) {
    if (Name != E.Name)
      continue;
    AppVersion V = E.V;
    // Moldyn has no untiled serial path: its "tiling_serial" is the
    // unified Serial.
    if (App == AppId::Moldyn && V == AppVersion::TilingSerial)
      V = AppVersion::Serial;
    // Validate availability through the same mapping run() uses.
    Status Check;
    switch (App) {
    case AppId::PageRank:
      Check = mapPageRank(V).status();
      break;
    case AppId::PageRank64:
      Check = mapPageRank64(V).status();
      break;
    case AppId::Sssp:
    case AppId::Sswp:
    case AppId::Wcc:
    case AppId::Bfs:
      Check = mapFrontier(App, V).status();
      break;
    case AppId::Moldyn:
      Check = mapMoldyn(V).status();
      break;
    case AppId::Agg:
      Check = mapAgg(V).status();
      break;
    case AppId::Rbk:
      Check = V == AppVersion::Default
                  ? Status()
                  : badVersion(AppId::Rbk, V);
      break;
    case AppId::Spmv:
      Check = mapSpmv(V).status();
      break;
    case AppId::Mesh:
      Check = mapMesh(V).status();
      break;
    }
    if (!Check.ok())
      return Check;
    return V;
  }
  return invalid("unknown version '" + Name + "' for app '" +
                 appIdName(App) + "'");
}

Expected<AppResult> cfv::run(const AppRequest &Request) {
  // Local copy so prepared-dataset artifacts can be wired into the
  // options without mutating the caller's request.
  AppRequest R = Request;
  // Top-level span covering validation, prep, and the kernel; the name is
  // the static appIdName string so the tracer never copies a dying buffer.
  obs::Span RunSpan(appIdName(R.App), "run");
  if (R.Options.Threads < 0)
    return invalid("Threads must be >= 0 (0 defers to CFV_THREADS)");

  // Prepared-dataset handle: adopt its graph and thread its memoized
  // schedules into the options of the apps that consume them.  First-use
  // materialization (cold request) is timed and charged to PrepSeconds
  // below; warm requests find the artifacts already built.
  double ArtifactSeconds = 0.0;
  if (R.Prepared) {
    if (!R.Graph)
      R.Graph = &R.Prepared->edges();
    else if (R.Graph != &R.Prepared->edges())
      return invalid("AppRequest::Graph contradicts AppRequest::Prepared");
    WallTimer ArtifactTimer;
    switch (R.App) {
    case AppId::PageRank:
      // (PageRank64 runs untiled; only the 32-bit app consumes tiling.)
      if (R.Version != AppVersion::Serial)
        R.Options.SharedTiling =
            &R.Prepared->tiling(apps::PageRankOptions().TileBlockBits);
      break;
    case AppId::Sssp:
    case AppId::Sswp:
    case AppId::Wcc:
    case AppId::Bfs:
      R.Options.SharedCsr = &R.Prepared->csr();
      if (R.Version == AppVersion::Grouping)
        R.Options.SharedTiling =
            &R.Prepared->tiling(apps::FrontierOptions().TileBlockBits);
      break;
    case AppId::Spmv:
      if (R.Version == AppVersion::CsrSerial)
        R.Options.SharedCsr = &R.Prepared->csr();
      break;
    default:
      break;
    }
    ArtifactSeconds = ArtifactTimer.seconds();
  }

  // Resolve the backend without touching process-global dispatch state:
  // an explicit choice goes through dispatchFor (which degrades tier by
  // tier when the requested ISA cannot run), Auto through the cached
  // process-wide selection.
  const core::BackendKind Requested =
      R.Options.Backend == core::BackendChoice::Scalar
          ? core::BackendKind::Scalar
      : R.Options.Backend == core::BackendChoice::Avx2
          ? core::BackendKind::Avx2
          : core::BackendKind::Avx512;
  const core::DispatchTable &T = R.Options.Backend == core::BackendChoice::Auto
                                     ? core::dispatch()
                                     : core::dispatchFor(Requested);

  AppResult Res;
  Res.App = R.App;
  Res.Backend = T.Kind;
  Res.Threads = core::resolveThreads(R.Options.Threads);

  switch (R.App) {
  case AppId::PageRank: {
    if (Status S = checkGraph(R, /*NeedsWeights=*/false); !S.ok())
      return S;
    const Expected<apps::PrVersion> V = mapPageRank(R.Version);
    if (!V.ok())
      return V.status();
    apps::PageRankOptions O;
    fillBase(O, R.Options);
    apps::PageRankResult PR = T.PageRank(*R.Graph, *V, O);
    Res.VersionName = apps::versionName(*V);
    Res.Values = std::move(PR.Rank);
    Res.Iterations = PR.Iterations;
    Res.ComputeSeconds = PR.ComputeSeconds;
    Res.PrepSeconds = PR.TilingSeconds + PR.GroupingSeconds;
    Res.SimdUtil = PR.SimdUtil;
    Res.MeanD1 = PR.MeanD1;
    Res.UsedAlg2 = PR.UsedAlg2;
    Res.D1Hist = PR.D1Hist;
    Res.UtilHist = PR.UtilHist;
    Res.TimedOut = PR.TimedOut;
    Res.EdgesProcessed =
        static_cast<int64_t>(PR.Iterations) * R.Graph->numEdges();
    break;
  }
  case AppId::PageRank64: {
    if (Status S = checkGraph(R, /*NeedsWeights=*/false); !S.ok())
      return S;
    const Expected<apps::Pr64Version> V = mapPageRank64(R.Version);
    if (!V.ok())
      return V.status();
    apps::PageRankOptions O;
    fillBase(O, R.Options);
    apps::PageRank64Result PR = T.PageRank64(*R.Graph, *V, O);
    Res.VersionName = *V == apps::Pr64Version::Serial ? "serial" : "invec";
    Res.Values64 = std::move(PR.Rank);
    Res.Iterations = PR.Iterations;
    Res.ComputeSeconds = PR.ComputeSeconds;
    Res.MeanD1 = PR.MeanD1;
    Res.D1Hist = PR.D1Hist;
    Res.EdgesProcessed =
        static_cast<int64_t>(PR.Iterations) * R.Graph->numEdges();
    break;
  }
  case AppId::Sssp:
  case AppId::Sswp:
  case AppId::Wcc:
  case AppId::Bfs: {
    const bool NeedsWeights = R.App == AppId::Sssp || R.App == AppId::Sswp;
    if (Status S = checkGraph(R, NeedsWeights); !S.ok())
      return S;
    if (R.Source < 0 || R.Source >= R.Graph->NumNodes)
      return invalid("source vertex out of range");
    const Expected<apps::FrVersion> V = mapFrontier(R.App, R.Version);
    if (!V.ok())
      return V.status();
    apps::FrontierOptions O;
    fillBase(O, R.Options);
    O.Source = R.Source;
    apps::FrontierResult FR = T.Frontier(*R.Graph, frontierApp(R.App), *V, O);
    Res.VersionName = apps::versionName(*V);
    Res.Values = std::move(FR.Value);
    Res.Iterations = FR.Iterations;
    Res.ComputeSeconds = FR.ComputeSeconds;
    Res.PrepSeconds = FR.TilingSeconds + FR.GroupingSeconds;
    Res.SimdUtil = FR.SimdUtil;
    Res.MeanD1 = FR.MeanD1;
    Res.D1Hist = FR.D1Hist;
    Res.UtilHist = FR.UtilHist;
    Res.TimedOut = FR.TimedOut;
    Res.EdgesProcessed = FR.EdgesProcessed;
    break;
  }
  case AppId::Moldyn: {
    const Expected<apps::MdVersion> V = mapMoldyn(R.Version);
    if (!V.ok())
      return V.status();
    if (R.Moldyn.Cells <= 0)
      return invalid("moldyn requires Cells > 0");
    apps::MoldynOptions O = R.Moldyn;
    fillBase(O, R.Options);
    const int Iterations = R.Options.MaxIterations > 0
                               ? R.Options.MaxIterations
                               : 20;
    Res.Moldyn = apps::runMoldyn(O, *V, Iterations, T.MoldynForces, T.Lanes);
    Res.VersionName = apps::versionName(*V);
    Res.Iterations = Iterations;
    Res.ComputeSeconds = Res.Moldyn.ComputeSeconds;
    Res.PrepSeconds = Res.Moldyn.NeighborSeconds + Res.Moldyn.TilingSeconds +
                      Res.Moldyn.GroupingSeconds;
    Res.SimdUtil = Res.Moldyn.SimdUtil;
    Res.MeanD1 = Res.Moldyn.MeanD1;
    Res.D1Hist = Res.Moldyn.D1Hist;
    Res.UtilHist = Res.Moldyn.UtilHist;
    Res.EdgesProcessed = Res.Moldyn.Pairs;
    break;
  }
  case AppId::Agg: {
    if (!R.Keys || !R.Vals)
      return invalid("agg requires AppRequest::Keys and Vals");
    if (R.Rows <= 0)
      return invalid("agg requires Rows > 0");
    if (R.Cardinality < 1 || R.Cardinality > kMaxCardinality)
      return invalid("agg Cardinality must be in [1, 2^24]");
    const Expected<apps::AggVersion> V = mapAgg(R.Version);
    if (!V.ok())
      return V.status();
    apps::AggResult AR = T.Aggregation(R.Keys, R.Vals, R.Rows, R.Cardinality,
                                       *V, R.Options);
    Res.VersionName = apps::versionName(*V);
    Res.Groups = std::move(AR.Groups);
    Res.Iterations = 1;
    Res.ComputeSeconds = AR.Seconds;
    Res.SimdUtil = AR.SimdUtil;
    Res.MeanD1 = AR.MeanD1;
    Res.D1Hist = AR.D1Hist;
    Res.UtilHist = AR.UtilHist;
    Res.EdgesProcessed = R.Rows;
    break;
  }
  case AppId::Rbk: {
    if (Status S = checkGraph(R, /*NeedsWeights=*/false); !S.ok())
      return S;
    if (R.Version != AppVersion::Default)
      return badVersion(AppId::Rbk, R.Version);
    const int Iterations = R.Options.MaxIterations > 0
                               ? R.Options.MaxIterations
                               : 1000;
    Res.Rbk = T.RbkComparison(*R.Graph, Iterations, R.Options);
    Res.VersionName = "comparison";
    Res.Iterations = Iterations;
    Res.ComputeSeconds = Res.Rbk.InvecSeconds;
    Res.MeanD1 = Res.Rbk.MeanD1;
    Res.D1Hist = Res.Rbk.D1Hist;
    Res.EdgesProcessed =
        static_cast<int64_t>(Iterations) * R.Graph->numEdges();
    break;
  }
  case AppId::Spmv: {
    if (Status S = checkGraph(R, /*NeedsWeights=*/true); !S.ok())
      return S;
    const Expected<apps::SpmvVersion> V = mapSpmv(R.Version);
    if (!V.ok())
      return V.status();
    const int Repeats = R.Options.MaxIterations > 0
                            ? R.Options.MaxIterations
                            : 1;
    AlignedVector<float> Ones;
    const float *X = R.X;
    if (!X) {
      Ones.assign(R.Graph->NumNodes, 1.0f);
      X = Ones.data();
    }
    apps::SpmvResult SR = T.Spmv(*R.Graph, X, *V, Repeats, R.Options);
    Res.VersionName = apps::versionName(*V);
    Res.Values = std::move(SR.Y);
    Res.Iterations = Repeats;
    Res.ComputeSeconds = SR.Seconds;
    Res.PrepSeconds = SR.PrepSeconds;
    Res.SimdUtil = SR.SimdUtil;
    Res.MeanD1 = SR.MeanD1;
    Res.D1Hist = SR.D1Hist;
    Res.UtilHist = SR.UtilHist;
    Res.EdgesProcessed =
        static_cast<int64_t>(Repeats) * R.Graph->numEdges();
    break;
  }
  case AppId::Mesh: {
    if (!R.MeshIn)
      return invalid("mesh requires AppRequest::MeshIn");
    if (R.MeshIn->NumCells <= 0)
      return invalid("mesh has no cells");
    if (!R.U0)
      return invalid("mesh requires AppRequest::U0");
    const Expected<apps::MeshVersion> V = mapMesh(R.Version);
    if (!V.ok())
      return V.status();
    const int Sweeps = R.Options.MaxIterations > 0
                           ? R.Options.MaxIterations
                           : 50;
    apps::MeshRunResult MR =
        T.MeshDiffusion(*R.MeshIn, R.U0, Sweeps, R.Dt, *V, R.Options);
    Res.VersionName = apps::versionName(*V);
    Res.Values = std::move(MR.U);
    Res.Iterations = Sweeps;
    Res.ComputeSeconds = MR.ComputeSeconds;
    Res.PrepSeconds = MR.GroupSeconds;
    Res.SimdUtil = MR.SimdUtil;
    Res.MeanD1 = MR.MeanD1;
    Res.D1Hist = MR.D1Hist;
    Res.UtilHist = MR.UtilHist;
    Res.EdgesProcessed =
        static_cast<int64_t>(Sweeps) * R.MeshIn->numEdges();
    break;
  }
  }
  Res.PrepSeconds += ArtifactSeconds;

  // One registry flush per run: counters, phase timings, and the merged
  // kernel distributions, labeled by app.
  obs::RunTelemetry Tel;
  Tel.App = appIdName(R.App);
  Tel.Backend = core::backendName(Res.Backend);
  Tel.LaneWidth = Res.Backend == core::BackendKind::Avx2 ? 8 : 16;
  Tel.PrepSeconds = Res.PrepSeconds;
  Tel.KernelSeconds = Res.ComputeSeconds;
  Tel.EdgesProcessed =
      Res.EdgesProcessed > 0 ? static_cast<uint64_t>(Res.EdgesProcessed) : 0;
  Tel.SimdUtil = Res.SimdUtil;
  Tel.MeanD1 = Res.MeanD1;
  Tel.UsedAlg2 = Res.UsedAlg2;
  Tel.D1 = &Res.D1Hist;
  Tel.Util = &Res.UtilHist;
  obs::recordRun(Tel);
  return Res;
}

double cfv::resultChecksum(const AppResult &R) {
  switch (R.App) {
  case AppId::PageRank64: {
    double Mass = 0.0;
    for (double X : R.Values64)
      Mass += X;
    return Mass;
  }
  case AppId::Agg: {
    double Sum = 0.0;
    for (const apps::GroupAgg &G : R.Groups)
      Sum += G.Sum;
    return Sum;
  }
  case AppId::Rbk:
    return R.Rbk.InvecChecksum;
  case AppId::Moldyn:
    return R.Moldyn.FinalPotential;
  case AppId::Spmv: {
    double Norm = 0.0;
    for (float Y : R.Values)
      Norm += static_cast<double>(Y) * Y;
    return Norm;
  }
  default: {
    // Skip non-finite entries (unreachable vertices hold +/-inf) so the
    // checksum stays a valid JSON number.
    double Mass = 0.0;
    for (float X : R.Values)
      if (std::isfinite(X))
        Mass += X;
    return Mass;
  }
  }
}

//===- service/Service.cpp - The serving layer front door -----------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "util/Clock.h"
#include "util/Timer.h"

#include <utility>

using namespace cfv;
using namespace cfv::service;

//===----------------------------------------------------------------------===//
// Wire mapping
//===----------------------------------------------------------------------===//

Expected<ServeRequest> service::parseRequest(const json::Value &V) {
  if (!V.isObject())
    return Status::error(ErrorCode::InvalidArgument,
                         "request must be a JSON object");
  ServeRequest R;
  R.Id = V.getString("id", "");
  R.App = V.getString("app", "");
  if (R.App.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "request needs an \"app\" field (pagerank, sssp, ...)");
  R.Version = V.getString("version", "");
  R.File = V.getString("file", "");
  R.Dataset = V.getString("dataset", R.Dataset);
  R.Scale = V.getNumber("scale", R.Scale);
  R.Seed = static_cast<uint64_t>(
      V.getInt("seed", static_cast<int64_t>(R.Seed)));
  R.Source = static_cast<int32_t>(V.getInt("source", 0));
  R.Iters = static_cast<int>(V.getInt("iters", 0));
  R.Threads = static_cast<int>(V.getInt("threads", 0));
  R.TimeoutMs = V.getNumber("timeout_ms", 0.0);
  return R;
}

std::string ServeResponse::toJson() const {
  json::ObjectWriter W;
  if (!Id.empty())
    W.field("id", Id);
  W.field("ok", Ok);
  if (!Ok) {
    W.field("error", errorCodeName(Error.code()));
    W.field("message", Error.message());
    if (RetryAfterMs > 0)
      W.field("retry_after_ms", RetryAfterMs);
    if (!App.empty())
      W.field("app", App);
    W.field("queue_seconds", QueueSeconds);
    return W.str();
  }
  W.field("app", App)
      .field("version", Version)
      .field("backend", Backend)
      .field("lanes", Lanes)
      .field("threads", Threads)
      .field("iterations", Iterations)
      .field("checksum", Checksum)
      .field("edges_processed", EdgesProcessed)
      .field("simd_util", SimdUtil)
      .field("mean_d1", MeanD1)
      .field("queue_seconds", QueueSeconds)
      .field("load_seconds", LoadSeconds)
      .field("prep_seconds", PrepSeconds)
      .field("kernel_seconds", KernelSeconds)
      .field("cache_hit", CacheHit);
  return W.str();
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

namespace {

/// Whether the serving layer covers \p App (has a cacheable graph input).
bool isServable(AppId App) {
  switch (App) {
  case AppId::PageRank:
  case AppId::PageRank64:
  case AppId::Sssp:
  case AppId::Sswp:
  case AppId::Wcc:
  case AppId::Bfs:
  case AppId::Rbk:
  case AppId::Spmv:
    return true;
  default:
    return false;
  }
}

bool needsWeights(AppId App) {
  return App == AppId::Sssp || App == AppId::Sswp || App == AppId::Spmv;
}

RequestScheduler::Config schedConfig(const Service::Config &C) {
  RequestScheduler::Config S;
  S.QueueDepth = C.QueueDepth;
  S.Workers = C.Workers;
  if (C.ShedQueuePct >= 0)
    S.ShedQueuePct = C.ShedQueuePct;
  if (C.ShedLatencyMs >= 0.0)
    S.ShedLatencySeconds = C.ShedLatencyMs / 1000.0;
  if (C.WatchdogMs >= 0.0)
    S.WatchdogSeconds = C.WatchdogMs / 1000.0;
  return S;
}

/// Label values come from request fields; clamp them to the safe label
/// alphabet so a hostile "app" string cannot corrupt the exposition.
std::string labelValue(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_' || C == '-';
    Out.push_back(Ok ? C : '_');
  }
  return Out.empty() ? std::string("unknown") : Out;
}

} // namespace

Service::Service(Config C)
    : Cache(C.CacheBytes < 0 ? DatasetCache::envCacheBytes() : C.CacheBytes,
            C.Loader ? std::move(C.Loader) : DatasetCache::defaultLoader()),
      Sched(schedConfig(C)) {}

std::future<ServeResponse> Service::submit(ServeRequest R) {
  auto Promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> Future = Promise->get_future();
  submitAsync(std::move(R),
              [Promise](ServeResponse Resp) { Promise->set_value(std::move(Resp)); });
  return Future;
}

void Service::submitAsync(ServeRequest R, Completion Done) {
  // Exactly-one-reply guard: the completion can be fired by the task
  // (normal path) or by the watchdog (stalled worker), whichever flips
  // Fired first; the loser discards its response.  Cancel tells the
  // still-running task its answer is no longer wanted.
  auto Cb = std::make_shared<Completion>(std::move(Done));
  auto Fired = std::make_shared<std::atomic<bool>>(false);
  auto Cancel = std::make_shared<std::atomic<bool>>(false);

  const std::string FairKey = R.App;
  const std::string Id = R.Id;
  const std::string App = R.App;

  int64_t RetryAfterMs = 0;
  RequestScheduler::SubmitExtras Extras;
  Extras.RetryAfterMs = &RetryAfterMs;
  Extras.OnStall = [Cb, Fired, Cancel, Id, App] {
    Cancel->store(true, std::memory_order_relaxed);
    if (!Fired->exchange(true)) {
      ServeResponse Resp;
      Resp.Ok = false;
      Resp.Id = Id;
      Resp.App = App;
      Resp.Error = Status::error(
          ErrorCode::Unavailable,
          "watchdog: worker stalled past its budget; request abandoned");
      (*Cb)(std::move(Resp));
    }
  };

  const Status Admit = Sched.submit(
      FairKey, R.TimeoutMs > 0.0 ? R.TimeoutMs / 1000.0 : 0.0,
      [this, Cb, Fired, Cancel, Req = std::move(R)](const TaskInfo &Info) {
        ServeResponse Resp = execute(Req, Info, Cancel.get());
        if (!Fired->exchange(true))
          (*Cb)(std::move(Resp));
      },
      Extras);
  if (!Admit.ok()) {
    // Backpressure: complete immediately with a structured rejection so
    // the caller sees exactly why nothing ran.
    ServeResponse Resp;
    Resp.Ok = false;
    Resp.Id = Id;
    Resp.App = App;
    Resp.Error = Admit;
    Resp.RetryAfterMs = RetryAfterMs;
    if (!Fired->exchange(true))
      (*Cb)(std::move(Resp));
  }
}

DatasetKey Service::datasetKeyFor(const ServeRequest &R) {
  DatasetKey Key;
  Key.FromFile = !R.File.empty();
  Key.Source = Key.FromFile ? R.File : R.Dataset;
  Key.Scale = R.Scale;
  const Expected<AppId> App = parseAppId(R.App);
  Key.Weighted = App.ok() && needsWeights(*App);
  Key.WeightSeed = R.Seed;
  return Key;
}

ServeResponse Service::execute(const ServeRequest &R, const TaskInfo &Info,
                               const std::atomic<bool> *Cancel) {
  // The queue span is retroactive -- the wait already happened by the
  // time the task runs -- and uses the exact QueueSeconds the response
  // reports.
  obs::Tracer::instance().recordAt("service:queue", "service",
                                   monotonicSeconds() - Info.QueueSeconds,
                                   Info.QueueSeconds);
  obs::Span ExecSpan("service:execute", "service");
  WallTimer T;
  ServeResponse Resp = executeInner(R, Info, Cancel);
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::MetricsRegistry::instance();
    const std::string App = labelValue(Resp.App);
    M.counter("cfv_requests_total",
              "app=\"" + App + "\",outcome=\"" +
                  (Resp.Ok ? "ok" : errorCodeName(Resp.Error.code())) + "\"",
              "Serving requests by app and outcome")
        .inc();
    // End-to-end latency: queue wait plus everything execute did (load,
    // prep, kernel, serialization overhead).
    M.histogram("cfv_request_seconds", obs::log2Bounds(1e-6, 26),
                "app=\"" + App + "\"",
                "End-to-end request seconds (queue + load + prep + kernel)")
        .observe(Info.QueueSeconds + T.seconds());
  }
  return Resp;
}

ServeResponse Service::executeInner(const ServeRequest &R,
                                    const TaskInfo &Info,
                                    const std::atomic<bool> *Cancel) {
  ServeResponse Resp;
  Resp.Id = R.Id;
  Resp.App = R.App;
  Resp.QueueSeconds = Info.QueueSeconds;

  auto fail = [&Resp](Status S) {
    Resp.Ok = false;
    Resp.Error = std::move(S);
    return Resp;
  };

  if (Info.DeadlineExpired)
    return fail(Status::error(ErrorCode::DeadlineExceeded,
                              "request expired after " +
                                  std::to_string(Info.QueueSeconds) +
                                  "s in queue"));

  const Expected<AppId> App = parseAppId(R.App);
  if (!App.ok())
    return fail(App.status());
  if (!isServable(*App))
    return fail(Status::error(
        ErrorCode::InvalidArgument,
        "app '" + R.App +
            "' is not servable (no cacheable dataset input); serve covers "
            "pagerank, pagerank64, sssp, sswp, wcc, bfs, rbk, spmv"));
  const Expected<AppVersion> Version =
      parseAppVersion(*App, R.Version.empty() ? "default" : R.Version);
  if (!Version.ok())
    return fail(Version.status());

  const Expected<CacheLookup> Looked = Cache.get(datasetKeyFor(R));
  if (!Looked.ok())
    return fail(Looked.status());
  Resp.CacheHit = Looked->Hit;
  Resp.LoadSeconds = Looked->LoadSeconds;
  if (Resp.LoadSeconds > 0.0)
    obs::Tracer::instance().recordAt("service:load", "service",
                                     monotonicSeconds() - Resp.LoadSeconds,
                                     Resp.LoadSeconds);

  AppRequest Run;
  Run.App = *App;
  Run.Version = *Version;
  Run.Prepared = Looked->Graph.get();
  Run.Source = R.Source;
  Run.Options.Threads = R.Threads;
  if (R.Iters > 0)
    Run.Options.MaxIterations = R.Iters;
  else if (*App == AppId::Rbk || *App == AppId::Spmv)
    Run.Options.MaxIterations = 10; // keep default serve requests short
  if (R.TimeoutMs > 0.0)
    Run.Options.DeadlineSteadySeconds =
        core::steadyNowSeconds() + R.TimeoutMs / 1000.0 -
        Info.QueueSeconds; // deadline is measured from admission
  Run.Options.CancelFlag = Cancel; // watchdog abandonment stops the run

  const Expected<AppResult> Result = cfv::run(Run);
  if (!Result.ok())
    return fail(Result.status());

  Resp.Version = Result->VersionName;
  Resp.Backend = core::backendName(Result->Backend);
  Resp.Lanes = Result->Backend == core::BackendKind::Avx2 ? 8 : 16;
  Resp.Threads = Result->Threads;
  Resp.Iterations = Result->Iterations;
  Resp.TimedOut = Result->TimedOut;
  Resp.PrepSeconds = Result->PrepSeconds;
  Resp.KernelSeconds = Result->ComputeSeconds;
  Resp.SimdUtil = Result->SimdUtil;
  Resp.MeanD1 = Result->MeanD1;
  Resp.EdgesProcessed = Result->EdgesProcessed;

  if (Result->TimedOut)
    return fail(Status::error(ErrorCode::DeadlineExceeded,
                              "deadline expired after " +
                                  std::to_string(Result->Iterations) +
                                  " iterations"));

  Resp.Ok = true;
  Resp.Checksum = resultChecksum(*Result);
  return Resp;
}

void Service::drain() { Sched.drain(); }

//===- service/Service.h - The serving layer front door ---------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the serving layer together: a ServeRequest names a graph
/// application and a dataset; Service resolves the dataset through the
/// DatasetCache (shared PreparedGraph handles, so inspector schedules
/// are computed once per dataset and reused across requests), admits the
/// work through the RequestScheduler (bounded queue, per-app fairness,
/// cooperative deadlines), and executes it via the cfv::run facade.  The
/// response carries the result digest plus the telemetry the caller
/// needs to reason about latency: queue wait, dataset load time, cache
/// hit, kernel time, SIMD utilization.
///
/// Service speaks structs; net::Server wraps it in the NDJSON protocol
/// (parseRequest / ServeResponse::toJson below define that mapping,
/// shared with the tests).
///
/// Scope: the serving layer covers the graph-consuming applications
/// (pagerank, pagerank64, sssp, sswp, wcc, bfs, rbk, spmv) -- the ones
/// with a cacheable dataset.  Moldyn/agg/mesh generate their inputs per
/// run and are rejected with InvalidArgument.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_SERVICE_SERVICE_H
#define CFV_SERVICE_SERVICE_H

#include "core/Api.h"
#include "service/DatasetCache.h"
#include "service/Json.h"
#include "service/RequestScheduler.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

namespace cfv {
namespace service {

/// One serving request: which app, on which dataset, under which limits.
struct ServeRequest {
  /// Echoed back verbatim so callers can match responses to requests.
  std::string Id;
  std::string App;               ///< "pagerank", "sssp", ...
  std::string Version;           ///< "" = app default
  std::string Dataset = "higgs-twitter-sim"; ///< synthetic dataset name
  std::string File;              ///< SNAP file path; overrides Dataset
  double Scale = 1.0;
  uint64_t Seed = 0xCF5EEDULL;   ///< weight-attachment seed for files
  int32_t Source = 0;            ///< frontier-app source vertex
  int Iters = 0;                 ///< 0 = app default
  int Threads = 0;               ///< 0 = CFV_THREADS default
  double TimeoutMs = 0.0;        ///< 0 = none; measured from admission
};

/// One serving response: outcome, digest, and latency telemetry.
struct ServeResponse {
  bool Ok = false;
  std::string Id;
  /// Filled when !Ok (structured error channel).
  Status Error;
  /// Backoff hint accompanying an overloaded rejection (0 = none).
  int64_t RetryAfterMs = 0;

  std::string App;
  std::string Version; ///< concrete version that ran
  std::string Backend;
  int Lanes = 16;      ///< 32-bit SIMD lanes of the backend that ran
  int Threads = 0;
  int Iterations = 0;
  bool TimedOut = false;

  /// Result digest (cfv::resultChecksum).
  double Checksum = 0.0;
  int64_t EdgesProcessed = 0;
  double SimdUtil = 1.0;
  double MeanD1 = 0.0;

  /// Telemetry: seconds queued, loading the dataset (0 exactly on a
  /// cache hit), materializing shared schedules, and in the kernel.
  double QueueSeconds = 0.0;
  double LoadSeconds = 0.0;
  double PrepSeconds = 0.0;
  double KernelSeconds = 0.0;
  bool CacheHit = false;

  /// The NDJSON wire form ({"id":...,"ok":true,...} one line, no '\n').
  std::string toJson() const;
};

/// Parses the NDJSON request object ({"app":"pagerank","dataset":...}).
/// Unknown fields are ignored; a missing "app" is an error.  Shared by
/// cfv_serve and the tests so both speak the same dialect.
Expected<ServeRequest> parseRequest(const json::Value &V);

class Service {
public:
  struct Config {
    /// Cache byte budget; < 0 defers to CFV_CACHE_BYTES.
    int64_t CacheBytes = -1;
    int QueueDepth = 64;
    int Workers = 1;
    /// Overload-protection overrides; negative defers to the CFV_SHED_*
    /// / CFV_WATCHDOG_MS environment knobs (see RequestScheduler).
    int ShedQueuePct = -1;
    double ShedLatencyMs = -1.0;
    double WatchdogMs = -1.0;
    /// Loader override for tests (null = DatasetCache::defaultLoader).
    DatasetCache::Loader Loader;
  };

  explicit Service(Config C);

  /// Admits \p R; the future resolves when the request completes.  A
  /// full queue resolves the future immediately with a structured
  /// Unavailable response (never throws, never blocks).
  std::future<ServeResponse> submit(ServeRequest R);

  /// The callback form submit() wraps: \p Done is invoked exactly once
  /// -- with the result, a structured rejection (called inline before
  /// submitAsync returns), or the watchdog's abandonment -- on whichever
  /// thread produced the outcome.  The event-loop front-end uses this to
  /// post completions back to its loop instead of parking a future.
  using Completion = std::function<void(ServeResponse)>;
  void submitAsync(ServeRequest R, Completion Done);

  /// The cache identity \p R resolves to (weightedness folded in from
  /// the app).  Requests whose app fails to parse key by the raw fields;
  /// they never reach the cache anyway.
  static DatasetKey datasetKeyFor(const ServeRequest &R);

  /// True when admission control would refuse a request arriving now
  /// (overload watermarks or hard queue bound); \p RetryAfterMs (may be
  /// null) receives the backoff hint.  Lets the network front-end shed
  /// before parsing bytes.
  bool wouldShed(int64_t *RetryAfterMs) const {
    return Sched.wouldShed(RetryAfterMs);
  }

  /// Blocks until every admitted request has completed.
  void drain();

  CacheStats cacheStats() const { return Cache.stats(); }
  RequestScheduler::Stats schedulerStats() const { return Sched.stats(); }

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

private:
  /// Runs one admitted request and records its metrics/spans; the phase
  /// telemetry in the response and the emitted spans come from the same
  /// measurements, so the NDJSON schema and traces cannot drift.
  /// \p Cancel (may be null) is raised by the watchdog after it has
  /// already answered the caller; the run stops cooperatively.
  ServeResponse execute(const ServeRequest &R, const TaskInfo &Info,
                        const std::atomic<bool> *Cancel);
  ServeResponse executeInner(const ServeRequest &R, const TaskInfo &Info,
                             const std::atomic<bool> *Cancel);

  DatasetCache Cache;
  RequestScheduler Sched;
};

} // namespace service
} // namespace cfv

#endif // CFV_SERVICE_SERVICE_H

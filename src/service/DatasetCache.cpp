//===- service/DatasetCache.cpp - Memoized dataset registry ---------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "service/DatasetCache.h"

#include "graph/Datasets.h"
#include "graph/Io.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"
#include "util/Clock.h"
#include "util/Env.h"
#include "util/Prng.h"
#include "util/Timer.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace cfv;
using namespace cfv::service;

namespace {

/// Process-wide mirrors of the per-instance CacheStats: stats() keeps its
/// per-cache zero-based semantics (the serve protocol and tests depend on
/// it) while the registry view aggregates every cache in the process for
/// scraping.  Resolved once; the hot path is a relaxed fetch_add.
struct CacheCounters {
  obs::Counter &Hits;
  obs::Counter &Misses;
  obs::Counter &Coalesced;
  obs::Counter &Evictions;

  static CacheCounters &get() {
    static CacheCounters C{
        obs::MetricsRegistry::instance().counter(
            "cfv_cache_hits_total", "", "Dataset cache hits"),
        obs::MetricsRegistry::instance().counter(
            "cfv_cache_misses_total", "",
            "Dataset cache misses (loads performed or waited on)"),
        obs::MetricsRegistry::instance().counter(
            "cfv_cache_coalesced_total", "",
            "Requests that waited on another request's in-flight load"),
        obs::MetricsRegistry::instance().counter(
            "cfv_cache_evictions_total", "", "Dataset cache LRU evictions")};
    return C;
  }
};

} // namespace

std::string DatasetKey::toString() const {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), " scale=%g %s seed=%llu", Scale,
                Weighted ? "weighted" : "unweighted",
                static_cast<unsigned long long>(WeightSeed));
  return (FromFile ? "file:" : "") + Source + Buf;
}

namespace {

/// Longest a circuit stays open per episode; exponential backoff caps
/// here so a dataset that comes back is probed within half a minute.
constexpr double kMaxBackoffSeconds = 30.0;

} // namespace

DatasetCache::DatasetCache(int64_t ByteBudget, Loader L)
    : Budget(ByteBudget), Load(std::move(L)),
      CbThreshold(static_cast<int>(env::intVar("CFV_CB_THRESHOLD", 3, 0, 100))),
      CbBackoffSeconds(env::floatVar("CFV_CB_BACKOFF_MS", 100.0, 1.0, 6e4) /
                       1000.0),
      PressurePct(
          static_cast<int>(env::intVar("CFV_CACHE_PRESSURE_PCT", 90, 1, 100))) {
  // Live gauges: scrapes read the cache's current state through these
  // callbacks (which take Mu), not a mirrored value that could go stale.
  obs::MetricsRegistry::instance().gauge(
      "cfv_cache_resident_bytes",
      [this] {
        std::lock_guard<std::mutex> Lock(Mu);
        return static_cast<double>(residentBytesLocked());
      },
      "", "Bytes of datasets resident in the cache");
  obs::MetricsRegistry::instance().gauge(
      "cfv_cache_entries",
      [this] {
        std::lock_guard<std::mutex> Lock(Mu);
        return static_cast<double>(Entries.size());
      },
      "", "Datasets resident (or loading) in the cache");
  obs::MetricsRegistry::instance().gauge(
      "cfv_circuit_state",
      [this] {
        std::lock_guard<std::mutex> Lock(Mu);
        return static_cast<double>(openCircuitsLocked());
      },
      "", "Dataset-load circuit breakers currently open (0 = all closed)");
}

DatasetCache::~DatasetCache() {
  // The callbacks capture `this`; they must not outlive the cache.
  obs::MetricsRegistry::instance().removeGauge("cfv_cache_resident_bytes");
  obs::MetricsRegistry::instance().removeGauge("cfv_cache_entries");
  obs::MetricsRegistry::instance().removeGauge("cfv_circuit_state");
}

int64_t DatasetCache::envCacheBytes() {
  return env::intVar("CFV_CACHE_BYTES", int64_t(256) << 20, 0,
                     int64_t(1) << 46);
}

DatasetCache::Loader DatasetCache::defaultLoader() {
  return [](const DatasetKey &Key) -> Expected<graph::EdgeList> {
    if (Key.FromFile) {
      Expected<graph::EdgeList> G = graph::readSnapEdgeList(Key.Source);
      if (!G.ok())
        return G.status();
      if (Key.Weighted && !G->isWeighted()) {
        // Attach deterministic weights so path algorithms work on
        // unweighted SNAP files, matching cfv_run's behavior.
        Xoshiro256 Rng(Key.WeightSeed);
        G->Weight.resize(G->numEdges());
        for (float &W : G->Weight)
          W = 1.0f + Rng.nextFloat() * 63.0f;
      }
      return G;
    }
    Expected<graph::Dataset> D =
        graph::makeGraphDataset(Key.Source, Key.Scale, Key.Weighted);
    if (!D.ok())
      return D.status();
    return std::move(D->Edges);
  };
}

Expected<CacheLookup> DatasetCache::get(const DatasetKey &Key) {
  WallTimer T;
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    auto It = Entries.find(Key);
    if (It == Entries.end())
      break; // miss: this call becomes the loader
    std::shared_ptr<Entry> E = It->second;
    if (E->St == Entry::State::Ready) {
      E->LastUse = ++Tick;
      ++Counters.Hits;
      CacheCounters::get().Hits.inc();
      CacheLookup R;
      R.Graph = E->Graph;
      R.Hit = true;
      R.LoadSeconds = 0.0;
      return R;
    }
    // Another request is loading this key: wait for it to publish, then
    // re-check (the entry is erased on load failure, so we may become
    // the next loader).
    ++Counters.Coalesced;
    CacheCounters::get().Coalesced.inc();
    Cv.wait(Lock, [&] {
      auto At = Entries.find(Key);
      return At == Entries.end() || At->second->St == Entry::State::Ready;
    });
    auto At = Entries.find(Key);
    if (At != Entries.end() && At->second->St == Entry::State::Ready) {
      At->second->LastUse = ++Tick;
      ++Counters.Misses; // coalesced counts as a miss that paid wait time
      CacheCounters::get().Misses.inc();
      CacheLookup R;
      R.Graph = At->second->Graph;
      R.Hit = false;
      R.LoadSeconds = T.seconds();
      return R;
    }
    if (At == Entries.end())
      break; // the load failed; retry as the loader ourselves
  }

  // About to become the loader: fail fast while this key's circuit is
  // open.  Once OpenUntil passes, the first arrival proceeds as the
  // half-open probe -- populate-once coalescing guarantees it is alone,
  // so a still-broken dataset costs one probe per backoff window, not a
  // thundering herd.
  {
    const auto BIt = Breakers.find(Key);
    if (BIt != Breakers.end() && BIt->second.OpenUntil > monotonicSeconds()) {
      ++Counters.CircuitRejects;
      const int64_t RetryMs = static_cast<int64_t>(
          (BIt->second.OpenUntil - monotonicSeconds()) * 1000.0);
      return Status::error(
          ErrorCode::Unavailable,
          "circuit open for " + Key.toString() + " after " +
              std::to_string(BIt->second.ConsecutiveFailures) +
              " consecutive load failures; retry in ~" +
              std::to_string(std::max<int64_t>(RetryMs, 1)) + "ms");
    }
  }

  // Byte-pressure watermark: make headroom for the incoming load before
  // it allocates, instead of discovering the overshoot afterwards.
  if (Budget > 0 && PressurePct < 100) {
    const int64_t Watermark = Budget * PressurePct / 100;
    if (residentBytesLocked() > Watermark)
      evictLocked(Key, Watermark, /*Emergency=*/true);
  }

  // Publish the Loading placeholder, then load without the lock so other
  // keys (and coalesced waiters) are not serialized behind the I/O.
  ++Counters.Misses;
  CacheCounters::get().Misses.inc();
  std::shared_ptr<Entry> E = std::make_shared<Entry>();
  Entries[Key] = E;
  Lock.unlock();

  // cache.alloc_fail models the loader hitting memory pressure;
  // cache.corrupt_artifact a load whose result fails its integrity
  // check.  Both flow through the ordinary failure path (placeholder
  // dropped, breaker charged), which is the point: injected faults take
  // the same exits real ones would.
  const bool AllocFault = fault::fire(fault::Point::CacheAllocFail);
  Expected<graph::EdgeList> G =
      AllocFault ? Expected<graph::EdgeList>(Status::error(
                       ErrorCode::Unavailable,
                       "injected allocation failure loading " +
                           Key.toString()))
                 : Load(Key);
  if (G.ok() && fault::fire(fault::Point::CacheCorruptArtifact))
    G = Status::error(ErrorCode::IoError,
                      "injected corrupt artifact for " + Key.toString());

  Lock.lock();
  if (!G.ok()) {
    // Failed loads are not cached: drop the placeholder and wake every
    // coalesced waiter so one of them (or the next request) retries.
    Entries.erase(Key);
    loadFailedLocked(Key);
    if (AllocFault) {
      // Memory pressure: shed every idle entry so the retry (and the
      // rest of the process) has room to breathe.
      evictLocked(Key, 0, /*Emergency=*/true);
    }
    Cv.notify_all();
    return G.status();
  }
  Breakers.erase(Key); // success closes the circuit and resets backoff
  E->Graph = std::make_shared<graph::PreparedGraph>(std::move(*G));
  E->LoadSeconds = T.seconds();
  E->St = Entry::State::Ready;
  E->LastUse = ++Tick;
  if (Budget > 0)
    evictLocked(Key, Budget, /*Emergency=*/false);
  Cv.notify_all();

  CacheLookup R;
  R.Graph = E->Graph;
  R.Hit = false;
  R.LoadSeconds = E->LoadSeconds;
  return R;
}

int64_t DatasetCache::residentBytesLocked() const {
  int64_t Bytes = 0;
  for (const auto &[K, E] : Entries)
    if (E->St == Entry::State::Ready)
      Bytes += E->Graph->approxBytes();
  return Bytes;
}

void DatasetCache::evictLocked(const DatasetKey &Keep, int64_t TargetBytes,
                               bool Emergency) {
  while (residentBytesLocked() > TargetBytes) {
    // Pick the least-recently-used Ready entry other than Keep.
    auto Victim = Entries.end();
    for (auto It = Entries.begin(); It != Entries.end(); ++It) {
      if (It->second->St != Entry::State::Ready || It->first == Keep)
        continue;
      if (Victim == Entries.end() ||
          It->second->LastUse < Victim->second->LastUse)
        Victim = It;
    }
    if (Victim == Entries.end())
      return; // only Keep (or in-flight loads) remain; keep serving it
    Entries.erase(Victim);
    ++Counters.Evictions;
    if (Emergency)
      ++Counters.EmergencyEvictions;
    CacheCounters::get().Evictions.inc();
  }
}

void DatasetCache::loadFailedLocked(const DatasetKey &Key) {
  if (CbThreshold <= 0)
    return;
  Breaker &B = Breakers[Key];
  if (++B.ConsecutiveFailures < CbThreshold)
    return;
  // Open (or, after a failed half-open probe, reopen with doubled
  // backoff).  The count keeps rising past the threshold so the error
  // message reflects the full failure streak.
  B.BackoffSeconds = B.BackoffSeconds == 0.0
                         ? CbBackoffSeconds
                         : std::min(B.BackoffSeconds * 2.0,
                                    kMaxBackoffSeconds);
  B.OpenUntil = monotonicSeconds() + B.BackoffSeconds;
}

int64_t DatasetCache::openCircuitsLocked() const {
  const double Now = monotonicSeconds();
  int64_t Open = 0;
  for (const auto &[K, B] : Breakers)
    if (B.OpenUntil > Now)
      ++Open;
  return Open;
}

void DatasetCache::emergencyEvict() {
  std::lock_guard<std::mutex> Lock(Mu);
  evictLocked(DatasetKey{}, 0, /*Emergency=*/true);
}

CacheStats DatasetCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Counters;
  S.ResidentBytes = residentBytesLocked();
  S.Entries = static_cast<int64_t>(Entries.size());
  S.OpenCircuits = openCircuitsLocked();
  return S;
}

void DatasetCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Entries.begin(); It != Entries.end();) {
    if (It->second->St == Entry::State::Ready) {
      It = Entries.erase(It);
      ++Counters.Evictions;
      CacheCounters::get().Evictions.inc();
    } else {
      ++It;
    }
  }
}

//===- core/ParallelEngine.cpp - Multi-core execution engine --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelEngine.h"

#include "core/CostModel.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"
#include "util/Env.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace cfv {
namespace core {

namespace {

/// True on a thread currently executing a pool job; a nested run() from
/// such a thread degrades to serial execution instead of deadlocking on
/// the pool it is itself draining.
thread_local bool InParallelRegion = false;

} // namespace

//===----------------------------------------------------------------------===//
// Thread-count policy
//===----------------------------------------------------------------------===//

int hardwareThreads() {
  const unsigned H = std::thread::hardware_concurrency();
  return H > 0 ? static_cast<int>(H) : 1;
}

int resolveThreads(int Requested) {
  if (Requested >= 1)
    return std::min(Requested, kMaxThreads);
  // Unset or unparsable keeps the library serial; 0 (or a negative value,
  // clamped up to 0) means "all hardware threads".
  const long long V = env::intVar("CFV_THREADS", /*Default=*/1,
                                  /*Min=*/0, /*Max=*/kMaxThreads);
  if (V <= 0)
    return std::min(hardwareThreads(), kMaxThreads);
  return static_cast<int>(V);
}

//===----------------------------------------------------------------------===//
// Iteration-space partitioning
//===----------------------------------------------------------------------===//

std::vector<int64_t> chunkBounds(int64_t N, int Threads, int64_t Align) {
  assert(Threads >= 1 && Align >= 1);
  std::vector<int64_t> Bounds(static_cast<size_t>(Threads) + 1);
  Bounds[0] = 0;
  for (int T = 1; T < Threads; ++T) {
    const int64_t Raw = N * T / Threads;
    const int64_t Rounded = (Raw + Align - 1) / Align * Align;
    Bounds[T] = std::min<int64_t>(N, std::max(Rounded, Bounds[T - 1]));
  }
  Bounds[Threads] = N;
  return Bounds;
}

std::vector<int64_t> chunkBoundsFromTiles(const std::vector<int64_t> &TileBegin,
                                          int Threads) {
  assert(Threads >= 1 && !TileBegin.empty());
  const int64_t NumTiles = static_cast<int64_t>(TileBegin.size()) - 1;
  const int64_t N = TileBegin.back();
  std::vector<int64_t> Bounds(static_cast<size_t>(Threads) + 1);
  Bounds[0] = 0;
  int64_t Tile = 0;
  for (int T = 1; T < Threads; ++T) {
    const int64_t Target = N * T / Threads;
    while (Tile < NumTiles && TileBegin[Tile] < Target)
      ++Tile;
    Bounds[T] = std::max(TileBegin[Tile], Bounds[T - 1]);
  }
  Bounds[Threads] = N;
  return Bounds;
}

//===----------------------------------------------------------------------===//
// Privatized accumulator targets
//===----------------------------------------------------------------------===//

void applySpillAdd(const SpillListF &L, float *Base) {
  const int64_t K = L.size();
  if (K == 0)
    return;
  obs::Span MergeSpan("engine:spill_merge", "merge");
  for (int64_t I = 0; I < K; ++I)
    Base[L.Idx[static_cast<size_t>(I)]] += L.Val[static_cast<size_t>(I)];
}

bool useDensePrivatization(int64_t Elems, int64_t ElemBytes,
                           int64_t TotalUpdates, int Threads) {
  const int64_t CapBytes = env::intVar(
      "CFV_PRIVATE_DENSE_MAX", /*Default=*/int64_t(256) << 20,
      /*Min=*/0, /*Max=*/int64_t(1) << 46);
  if (Elems * ElemBytes > CapBytes)
    return false;
  const int T = std::max(Threads, 1);
  return privatizeDense(Elems, TotalUpdates / T);
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

ParallelEngine &ParallelEngine::instance() {
  static ParallelEngine Engine;
  return Engine;
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Quit = true;
  }
  CvJob.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ParallelEngine::ensureWorkers(int Needed) {
  std::lock_guard<std::mutex> Lock(Mu);
  while (static_cast<int>(Workers.size()) < Needed) {
    const int Slot = static_cast<int>(Workers.size());
    // The new worker must not mistake the current generation for a fresh
    // job, so it captures the generation counter before it starts waiting.
    const uint64_t StartGen = Generation;
    Workers.emplace_back(
        [this, Slot, StartGen] { workerLoop(Slot, StartGen); });
  }
}

void ParallelEngine::workerLoop(int Slot, uint64_t StartGen) {
  uint64_t SeenGen = StartGen;
  for (;;) {
    const std::function<void(int)> *MyJob = nullptr;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      CvJob.wait(Lock, [&] { return Quit || Generation != SeenGen; });
      if (Quit)
        return;
      SeenGen = Generation;
      if (Slot + 1 >= JobThreads)
        continue; // job does not need this worker
      MyJob = Job;
    }
    InParallelRegion = true;
    (*MyJob)(Slot + 1);
    InParallelRegion = false;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (--Remaining == 0)
        CvDone.notify_all();
    }
  }
}

void ParallelEngine::run(int Threads, const std::function<void(int)> &Body) {
  Threads = std::min(std::max(Threads, 1), kMaxThreads);
  obs::Span RunSpan("engine:run", "kernel");
  if (obs::enabled()) {
    static obs::Counter &Runs = obs::MetricsRegistry::instance().counter(
        "cfv_engine_runs_total", "",
        "Parallel-engine job launches (one per kernel pass)");
    Runs.inc();
  }
  // kernel.slow_tile models a pathologically slow pass (page-cache miss
  // storm, thermal throttling): the pass still completes correctly, just
  // late -- what the scheduler's watchdog and cooperative deadlines must
  // absorb.  Bounded so a chaos run cannot wedge on it.
  if (fault::fire(fault::Point::KernelSlowTile))
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  if (Threads == 1 || InParallelRegion) {
    Body(0);
    return;
  }
  std::lock_guard<std::mutex> RunLock(RunMu);
  ensureWorkers(Threads - 1);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Job = &Body;
    JobThreads = Threads;
    Remaining = Threads - 1;
    ++Generation;
  }
  CvJob.notify_all();
  InParallelRegion = true;
  Body(0);
  InParallelRegion = false;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CvDone.wait(Lock, [&] { return Remaining == 0; });
    Job = nullptr;
    JobThreads = 0;
  }
}

} // namespace core
} // namespace cfv

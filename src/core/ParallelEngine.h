//===- core/ParallelEngine.h - Multi-core execution engine ------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-core half of two-level conflict freedom.  In-vector reduction
/// (core/InvecReduce.h) removes conflicts *within* a SIMD register; this
/// engine removes conflicts *across* cores by the classic associative
/// trick the paper's reductions already rely on: each worker runs the
/// unmodified per-backend SIMD kernel over a contiguous chunk of the
/// iteration space, writing into a privatized accumulator, and the
/// partial results are merged deterministically afterwards.
///
/// Components:
///  - ParallelEngine: a dependency-free persistent worker pool
///    (std::thread + condition_variable).  Static chunk-to-thread
///    assignment, caller participates as thread 0, so a run at a fixed
///    thread count is deterministic.
///  - resolveThreads / chunkBounds / chunkBoundsFromTiles: thread-count
///    and iteration-space partitioning policy.  Chunk boundaries are
///    SIMD-block aligned (or inspector/Tiling tile aligned) so each
///    worker executes the same whole-block + tail structure the serial
///    kernel would; with one thread the single chunk is the full range
///    and the kernel runs bit-identically to the serial path.
///  - FloatSink / SpillListF: the two privatization strategies chosen by
///    core::privatizeDense (core/CostModel.h).  Dense replication gives
///    every worker its own copy of the value array; a sparse spill list
///    records (index, addend) pairs instead when replicas would be too
///    large, at one append per update.
///  - mergeTreeAdd: tree-structured parallel merge of dense replicas
///    with a fixed pairing, so the merged sum is bit-identical no matter
///    how the pair combines are scheduled.
///
/// Workers must not call core::dispatch() (its cached selection is not
/// synchronized); callers resolve the kernel table before entering the
/// parallel region and capture it.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_CORE_PARALLELENGINE_H
#define CFV_CORE_PARALLELENGINE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/InvecReduce.h"
#include "obs/Trace.h"
#include "simd/Backend.h"
#include "simd/Ops.h"
#include "util/AlignedAlloc.h"

namespace cfv {
namespace core {

//===----------------------------------------------------------------------===//
// Thread-count policy
//===----------------------------------------------------------------------===//

/// Number of hardware threads, at least 1.
int hardwareThreads();

/// Resolves a requested thread count to the number of workers to run.
/// Requested >= 1 wins as-is (capped at kMaxThreads).  Requested <= 0
/// defers to the CFV_THREADS environment variable: unset or unparsable
/// keeps the library serial (1); a positive value is used directly; 0 or
/// a negative value means "all hardware threads".
int resolveThreads(int Requested);

/// Upper bound on the worker count; requests above it are clamped.
inline constexpr int kMaxThreads = 512;

//===----------------------------------------------------------------------===//
// Iteration-space partitioning
//===----------------------------------------------------------------------===//

/// Splits [0, N) into \p Threads contiguous chunks with boundaries
/// rounded up to \p Align (the SIMD block width, so only the final chunk
/// carries a tail).  Returns Threads + 1 monotone bounds with front() == 0
/// and back() == N; chunks may be empty when N is small.
std::vector<int64_t> chunkBounds(int64_t N, int Threads, int64_t Align);

/// Like chunkBounds but snaps every boundary to an inspector/Tiling tile
/// boundary, so a cache-sized tile is never split across workers.
/// \p TileBegin is TilingResult::TileBegin (numTiles() + 1 entries).
std::vector<int64_t> chunkBoundsFromTiles(const std::vector<int64_t> &TileBegin,
                                          int Threads);

//===----------------------------------------------------------------------===//
// Privatized accumulator targets
//===----------------------------------------------------------------------===//

/// A sparse spill list: (index, addend) pairs appended during the sweep
/// and applied to the base array in thread-id order afterwards.  The
/// vector push uses compress-store, preserving the SIMD character of the
/// kernel that produced the updates.
struct SpillListF {
  AlignedVector<int32_t> Idx;
  AlignedVector<float> Val;

  void clear() {
    Idx.clear();
    Val.clear();
  }
  int64_t size() const { return static_cast<int64_t>(Idx.size()); }

  void push(int32_t I, float V) {
    Idx.push_back(I);
    Val.push_back(V);
  }

  void push(simd::Mask16 M, simd::VecI32<simd::NativeBackend> I,
            simd::VecF32<simd::NativeBackend> V) {
    alignas(64) int32_t TmpI[simd::kMaxLanes];
    alignas(64) float TmpV[simd::kMaxLanes];
    const int K = I.compressStore(M, TmpI);
    V.compressStore(M, TmpV);
    for (int L = 0; L < K; ++L) {
      Idx.push_back(TmpI[L]);
      Val.push_back(TmpV[L]);
    }
  }
};

/// Folds a spill list into \p Base in append order.
void applySpillAdd(const SpillListF &L, float *Base);

/// Where a worker's additive float updates land: either a dense array
/// (the shared base for thread 0, a private replica for the rest) or a
/// sparse spill list.  The dense commit is core::accumulateScatter, which
/// performs the same gather + add + scatter the hand-written kernels use,
/// so routing a kernel through a dense sink does not change arithmetic.
class FloatSink {
public:
  static FloatSink dense(float *Base) {
    FloatSink S;
    S.Base = Base;
    return S;
  }
  static FloatSink spill(SpillListF *List) {
    FloatSink S;
    S.List = List;
    return S;
  }

  bool isDense() const { return Base != nullptr; }
  float *densePtr() const { return Base; }

  void add(int32_t I, float V) const {
    if (Base)
      Base[I] += V;
    else
      List->push(I, V);
  }

  void commit(simd::Mask16 M, simd::VecI32<simd::NativeBackend> I,
              simd::VecF32<simd::NativeBackend> V) const {
    if (Base)
      core::accumulateScatter<simd::OpAdd>(M, I, V, Base);
    else
      List->push(M, I, V);
  }

private:
  float *Base = nullptr;
  SpillListF *List = nullptr;
};

/// Chooses between dense replication and sparse spill lists for a
/// privatized array of \p Elems elements of \p ElemBytes each receiving
/// \p TotalUpdates updates spread over \p Threads workers.  Applies the
/// core::privatizeDense cost model plus a per-replica byte cap
/// (CFV_PRIVATE_DENSE_MAX, default 256 MiB; read per call so tests can
/// force the spill path).
bool useDensePrivatization(int64_t Elems, int64_t ElemBytes,
                           int64_t TotalUpdates, int Threads);

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

/// Process-wide persistent worker pool.  run(T, Body) invokes Body(0)
/// on the calling thread and Body(1..T-1) on pool workers, returning
/// once all have finished.  Concurrent run() calls from different
/// threads serialize on an internal mutex; a nested run() from inside a
/// worker degrades to Body(0) on that worker (no deadlock, still every
/// index covered because the nesting caller owns its outer chunk).
class ParallelEngine {
public:
  static ParallelEngine &instance();

  void run(int Threads, const std::function<void(int)> &Body);

  ~ParallelEngine();

  ParallelEngine(const ParallelEngine &) = delete;
  ParallelEngine &operator=(const ParallelEngine &) = delete;

private:
  ParallelEngine() = default;

  void ensureWorkers(int Needed);
  void workerLoop(int Slot, uint64_t StartGen);

  std::mutex RunMu; // serializes whole run() invocations

  std::mutex Mu; // guards everything below
  std::condition_variable CvJob;
  std::condition_variable CvDone;
  std::vector<std::thread> Workers;
  const std::function<void(int)> *Job = nullptr;
  int JobThreads = 0;
  int Remaining = 0;
  uint64_t Generation = 0;
  bool Quit = false;
};

//===----------------------------------------------------------------------===//
// Deterministic tree merge
//===----------------------------------------------------------------------===//

/// Folds the dense replicas in \p Parts into \p Base with a fixed-pairing
/// tree reduction and resets every replica to zero for reuse.  The
/// pairing (stride doubling over the replica index) is independent of
/// how the pair combines are scheduled, so the result is bit-identical
/// whether the rounds run serially or on the pool; thread-0 updates are
/// already in Base, and Parts[i] holds thread i+1's partial sums, so the
/// final fold appends the merged tree onto Base exactly once.
template <typename T>
void mergeTreeAdd(T *Base, std::vector<AlignedVector<T>> &Parts, int64_t N) {
  const int P = static_cast<int>(Parts.size());
  if (P == 0 || N == 0)
    return;
  obs::Span MergeSpan("engine:merge", "merge");
  const auto Combine = [&Parts, N](int A, int B) {
    T *X = Parts[A].data();
    T *Y = Parts[B].data();
    for (int64_t J = 0; J < N; ++J) {
      X[J] += Y[J];
      Y[J] = T(0);
    }
  };
  for (int Stride = 1; Stride < P; Stride *= 2) {
    std::vector<std::pair<int, int>> Pairs;
    for (int I = 0; I + Stride < P; I += 2 * Stride)
      Pairs.emplace_back(I, I + Stride);
    if (Pairs.size() > 1 && N >= 4096) {
      ParallelEngine::instance().run(
          static_cast<int>(Pairs.size()),
          [&](int K) { Combine(Pairs[K].first, Pairs[K].second); });
    } else {
      for (const auto &[A, B] : Pairs)
        Combine(A, B);
    }
  }
  T *X = Parts[0].data();
  for (int64_t J = 0; J < N; ++J) {
    Base[J] += X[J];
    X[J] = T(0);
  }
}

} // namespace core
} // namespace cfv

#endif // CFV_CORE_PARALLELENGINE_H

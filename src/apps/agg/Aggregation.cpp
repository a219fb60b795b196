//===- apps/agg/Aggregation.cpp - Hash-based group-by aggregation --------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/agg/Aggregation.h"

#include "core/Backends.h"
#include "core/CostModel.h"
#include "core/InvecReduce.h"
#include "core/ParallelEngine.h"
#include "core/Variant.h"
#include "simd/Traits.h"
#include "obs/Kernel.h"
#include "util/Stats.h"
#include "util/Timer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <vector>

using namespace cfv;
using namespace cfv::apps;

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
using simd::Mask16;
constexpr int kLanes = B::kLanes;
constexpr int kLanesLog2 = std::countr_zero(static_cast<unsigned>(kLanes));
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

#if CFV_VARIANT_PRIMARY
const char *apps::versionName(AggVersion V) {
  switch (V) {
  case AggVersion::LinearSerial:
    return "linear_serial";
  case AggVersion::LinearMask:
    return "linear_mask";
  case AggVersion::BucketMask:
    return "bucket_mask";
  case AggVersion::LinearInvec:
    return "linear_invec";
  case AggVersion::BucketInvec:
    return "bucket_invec";
  }
  return "unknown";
}
#endif // CFV_VARIANT_PRIMARY

namespace {

constexpr int32_t kEmptyKey = -1;
/// Gather default that matches neither a real key nor the empty marker.
constexpr int32_t kNeverKey = -2;

/// Capacity cap: 2^27 slots keeps the largest table (bucketized, four
/// payload arrays) under 10 GiB even at the sweep's extremes and, more
/// importantly, keeps the power-of-two arithmetic inside 32 bits.
constexpr uint64_t kMaxSlots = uint64_t(1) << 27;

uint32_t nextPow2(uint64_t X) {
  assert(X <= kMaxSlots && "aggregation table over the size cap; shrink "
                           "the cardinality hint");
  if (X > kMaxSlots)
    X = kMaxSlots; // release builds saturate instead of looping
  uint32_t P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

/// Fibonacci multiply hash.
inline uint32_t hashKey(int32_t K) {
  return static_cast<uint32_t>(K) * 2654435761u;
}

inline IVec hashVec(IVec K) {
  return K * IVec::broadcast(static_cast<int32_t>(2654435761u));
}

//===----------------------------------------------------------------------===//
// Linear-probing table
//===----------------------------------------------------------------------===//

struct LinearTable {
  uint32_t Capacity;
  uint32_t SlotMask;
  int Shift; ///< 32 - log2(Capacity), for the multiply-shift hash
  AlignedVector<int32_t> Key;
  AlignedVector<float> Cnt, Sum, Sq;

  explicit LinearTable(int64_t Cardinality) {
    // Load factor <= 1/4 so probe chains stay short even at the sweep's
    // largest cardinality.
    Capacity = nextPow2(std::max<int64_t>(4 * Cardinality, 1024));
    SlotMask = Capacity - 1;
    Shift = 32 - std::countr_zero(Capacity);
    Key.assign(Capacity, kEmptyKey);
    Cnt.assign(Capacity, 0.0f);
    Sum.assign(Capacity, 0.0f);
    Sq.assign(Capacity, 0.0f);
  }

  uint32_t slotOf(int32_t K) const { return hashKey(K) >> Shift; }

  void updateSerial(int32_t K, float V) {
    assert(K >= 0 && "keys must be non-negative");
    uint32_t H = slotOf(K);
    while (Key[H] != K && Key[H] != kEmptyKey)
      H = (H + 1) & SlotMask;
    Key[H] = K;
    Cnt[H] += 1.0f;
    Sum[H] += V;
    Sq[H] += V * V;
  }

  void collect(std::vector<GroupAgg> &Out) const {
    for (uint32_t S = 0; S < Capacity; ++S)
      if (Key[S] != kEmptyKey)
        Out.push_back({Key[S], Cnt[S], Sum[S], Sq[S]});
  }
};

/// Vector hash matching LinearTable::slotOf.
inline IVec slotVec(const LinearTable &T, IVec K) {
  return hashVec(K).shrl(T.Shift);
}

//===----------------------------------------------------------------------===//
// Bucketized table (16 slots per bucket, slot = SIMD lane)
//===----------------------------------------------------------------------===//

struct BucketTable {
  uint32_t NumBuckets;
  uint32_t BucketMask;
  int Shift;
  AlignedVector<int32_t> Key;
  AlignedVector<float> Cnt, Sum, Sq;

  explicit BucketTable(int64_t Cardinality) {
    // Slot l of every bucket belongs to SIMD lane l, and any key can show
    // up in any lane, so each lane's private sub-table (one slot per
    // bucket) must itself hold the full cardinality: NumBuckets >= 2*C
    // keeps every lane's load factor at most 1/2.  The table is therefore
    // much larger than the linear one for the same cardinality, yet its
    // *hashing range* (bucket count) stays small -- exactly the probing
    // disadvantage at high cardinality that §4.4 describes.
    NumBuckets = nextPow2(std::max<int64_t>(2 * Cardinality, 128));
    BucketMask = NumBuckets - 1;
    Shift = 32 - std::countr_zero(NumBuckets);
    const std::size_t Slots = static_cast<std::size_t>(NumBuckets) * kLanes;
    Key.assign(Slots, kEmptyKey);
    Cnt.assign(Slots, 0.0f);
    Sum.assign(Slots, 0.0f);
    Sq.assign(Slots, 0.0f);
  }

  void collect(std::vector<GroupAgg> &Out) const {
    // Per-lane partial aggregates of one key merge here.
    std::unordered_map<int32_t, GroupAgg> Merge;
    for (std::size_t S = 0; S < Key.size(); ++S) {
      if (Key[S] == kEmptyKey)
        continue;
      GroupAgg &G = Merge[Key[S]];
      G.Key = Key[S];
      G.Cnt += Cnt[S];
      G.Sum += Sum[S];
      G.SumSq += Sq[S];
    }
    for (const auto &[K, G] : Merge)
      Out.push_back(G);
  }
};

/// Bucket id vector matching the multiply-shift hash.
inline IVec bucketVec(const BucketTable &T, IVec K) {
  return hashVec(K).shrl(T.Shift);
}

//===----------------------------------------------------------------------===//
// Build kernels
//===----------------------------------------------------------------------===//

void buildLinearSerial(LinearTable &T, const int32_t *Keys,
                       const float *Vals, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    T.updateSerial(Keys[I], Vals[I]);
}

/// Accumulates the three aggregate payloads at pairwise-distinct slots.
void accumulateAggregates(Mask16 M, IVec Slot, FVec C1, FVec S, FVec Q,
                          LinearTable &T) {
  core::accumulateScatter<simd::OpAdd>(M, Slot, C1, T.Cnt.data());
  core::accumulateScatter<simd::OpAdd>(M, Slot, S, T.Sum.data());
  core::accumulateScatter<simd::OpAdd>(M, Slot, Q, T.Sq.data());
}

void buildLinearMask(LinearTable &T, const int32_t *Keys, const float *Vals,
                     int64_t N, SimdUtilCounter &Util) {
  if (N <= 0)
    return;
  IVec Pos = IVec::iota();
  int64_t Next = kLanes;
  const IVec Limit = IVec::broadcast(static_cast<int32_t>(N));
  Mask16 Active = Pos.lt(Limit);

  IVec K = IVec::maskGather(IVec::zero(), Active, Keys, Pos);
  FVec V = FVec::maskGather(FVec::zero(), Active, Vals, Pos);
  IVec H = slotVec(T, K);

  const IVec One = IVec::broadcast(1);
  const IVec SlotMaskV = IVec::broadcast(static_cast<int32_t>(T.SlotMask));

  while (Active) {
    const IVec TK = IVec::maskGather(IVec::broadcast(kNeverKey), Active,
                                     T.Key.data(), H);
    const Mask16 MatchM = TK.maskEq(Active, K);
    const Mask16 EmptyM = TK.maskEq(Active, IVec::broadcast(kEmptyKey));
    // Claim empty slots; the conflict-free subset prevents two lanes from
    // claiming the same slot in one pass (this is the gather-after-
    // scatter problem the vpconflict instruction solves directly).
    const Mask16 InsM = simd::conflictFreeSubset(EmptyM, H);
    K.maskScatter(InsM, T.Key.data(), H);
    // Lanes whose slot now holds their key; identical keys in multiple
    // lanes would all match the same slot, so conflict-mask them again.
    const Mask16 UpdM = static_cast<Mask16>(MatchM | InsM);
    const Mask16 SafeM = simd::conflictFreeSubset(UpdM, H);
    accumulateAggregates(SafeM, H, FVec::broadcast(1.0f), V, V * V, T);
    Util.recordPass(simd::popcount(SafeM), simd::popcount(Active));

    // Occupied-by-another-key lanes move to the next probe slot.
    const Mask16 MismatchM =
        static_cast<Mask16>(Active & ~MatchM & ~EmptyM);
    H = IVec::blend(MismatchM, H, (H + One) & SlotMaskV);

    // Refill the committed lanes with fresh rows.
    if (SafeM) {
      IVec Fresh =
          IVec::broadcast(static_cast<int32_t>(Next)) + IVec::iota();
      Fresh = IVec::expand(SafeM, Fresh);
      Pos = IVec::blend(SafeM, Pos, Fresh);
      Next += simd::popcount(SafeM);
      Active = Pos.lt(Limit);
      const Mask16 Reload = static_cast<Mask16>(SafeM & Active);
      K = IVec::maskGather(K, Reload, Keys, Pos);
      V = FVec::maskGather(V, Reload, Vals, Pos);
      H = IVec::blend(Reload, H, slotVec(T, K));
    }
  }
}

/// Probes the linear table for the \p Todo lanes (which may contain up to
/// two lanes per key when Algorithm 2 split them) and accumulates their
/// payloads.  Same-key lanes matching the same slot are serialized by one
/// extra conflict-free-subset step.
void probeAndAccumulate(LinearTable &T, Mask16 Todo, IVec K, FVec C1,
                        FVec S, FVec Q) {
  const IVec One = IVec::broadcast(1);
  const IVec SlotMaskV = IVec::broadcast(static_cast<int32_t>(T.SlotMask));
  IVec H = slotVec(T, K);
  while (Todo) {
    const IVec TK = IVec::maskGather(IVec::broadcast(kNeverKey), Todo,
                                     T.Key.data(), H);
    const Mask16 MatchM = TK.maskEq(Todo, K);
    const Mask16 EmptyM = TK.maskEq(Todo, IVec::broadcast(kEmptyKey));
    // Distinct keys can still collide on a slot: guard the claims.
    const Mask16 InsM = simd::conflictFreeSubset(EmptyM, H);
    K.maskScatter(InsM, T.Key.data(), H);
    const Mask16 UpdM = static_cast<Mask16>(MatchM | InsM);
    // With Algorithm 1 all Todo keys are distinct and this is the
    // identity; with Algorithm 2's two subsets a key's pair of lanes
    // serializes over two passes.
    const Mask16 SafeM = simd::conflictFreeSubset(UpdM, H);
    accumulateAggregates(SafeM, H, C1, S, Q, T);
    Todo = static_cast<Mask16>(Todo & ~SafeM);
    const Mask16 MismatchM =
        static_cast<Mask16>(Todo & ~MatchM & ~EmptyM);
    H = IVec::blend(MismatchM, H, (H + One) & SlotMaskV);
  }
}

void buildLinearInvec(LinearTable &T, const int32_t *Keys, const float *Vals,
                      int64_t N, ConflictCounter &MeanD1,
                      InvecPolicy Policy) {
  // §3.4 sampling window for the adaptive policy.
  constexpr int kWindow = 64;
  bool UseAlg2 = Policy == InvecPolicy::Alg2;
  int Sampled = 0;

  for (int64_t I = 0; I < N; I += kLanes) {
    const int64_t Left = N - I;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec K = IVec::maskLoad(IVec::broadcast(kNeverKey), Active,
                                  Keys + I);
    const FVec V = FVec::maskLoad(FVec::zero(), Active, Vals + I);

    // Pre-aggregate the duplicate keys of this vector in-register; only
    // lanes holding partial results touch the table at all.
    FVec C1 = FVec::broadcast(1.0f), S = V, Q = V * V;
    Mask16 Todo;
    if (UseAlg2) {
      // Algorithm 2: at most one merge per third-and-later occurrence;
      // both conflict-free subsets probe (the table plays the role of
      // both reduction arrays, serialized by probeAndAccumulate).
      const core::Invec2Result R =
          core::invecReduce2<simd::OpAdd>(Active, K, C1, S, Q);
      Todo = static_cast<Mask16>(R.Ret1 | R.Ret2);
    } else {
      const core::InvecResult R =
          core::invecReduce<simd::OpAdd>(Active, K, C1, S, Q);
      MeanD1.add(R.Distinct);
      Todo = R.Ret;
      if (Policy == InvecPolicy::Adaptive && Sampled < kWindow &&
          ++Sampled == kWindow) {
        UseAlg2 = core::preferAlg2(MeanD1.mean());
        obs::recordAdaptiveDecision(UseAlg2, MeanD1.mean());
      }
    }
    probeAndAccumulate(T, Todo, K, C1, S, Q);
  }
}

template <bool PreReduce>
void buildBucket(BucketTable &T, const int32_t *Keys, const float *Vals,
                 int64_t N, SimdUtilCounter &Util, ConflictCounter &MeanD1) {
  const IVec One = IVec::broadcast(1);
  const IVec BMaskV = IVec::broadcast(static_cast<int32_t>(T.BucketMask));
  const IVec LaneIota = IVec::iota();

  for (int64_t I = 0; I < N; I += kLanes) {
    const int64_t Left = N - I;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec K = IVec::maskLoad(IVec::broadcast(kNeverKey), Active,
                                  Keys + I);
    const FVec V = FVec::maskLoad(FVec::zero(), Active, Vals + I);

    FVec C1 = FVec::broadcast(1.0f), S = V, Q = V * V;
    Mask16 Todo = Active;
    if constexpr (PreReduce) {
      const core::InvecResult R =
          core::invecReduce<simd::OpAdd>(Active, K, C1, S, Q);
      MeanD1.add(R.Distinct);
      Todo = R.Ret;
    }

    IVec Hb = bucketVec(T, K);
    [[maybe_unused]] uint32_t Probes = 0;
    while (Todo) {
      assert(++Probes <= T.NumBuckets &&
             "bucket table over capacity: a lane wrapped its sub-table");
      // Lane l owns slot l of its bucket, so the kLanes slot addresses
      // are distinct by construction -- no conflict handling is needed;
      // this is the table's whole point.  Buckets hold kLanes slots, so
      // the bucket base is Hb * kLanes.
      const IVec Slot = Hb.shl(kLanesLog2) + LaneIota;
      const IVec TK = IVec::maskGather(IVec::broadcast(kNeverKey), Todo,
                                       T.Key.data(), Slot);
      const Mask16 MatchM = TK.maskEq(Todo, K);
      const Mask16 EmptyM = TK.maskEq(Todo, IVec::broadcast(kEmptyKey));
      K.maskScatter(EmptyM, T.Key.data(), Slot);
      const Mask16 UpdM = static_cast<Mask16>(MatchM | EmptyM);
      core::accumulateScatter<simd::OpAdd>(UpdM, Slot, C1, T.Cnt.data());
      core::accumulateScatter<simd::OpAdd>(UpdM, Slot, S, T.Sum.data());
      core::accumulateScatter<simd::OpAdd>(UpdM, Slot, Q, T.Sq.data());
      Util.recordPass(simd::popcount(UpdM), kLanes);
      Todo = static_cast<Mask16>(Todo & ~UpdM);
      // The rest hit a slot owned by a different key: next bucket.
      Hb = IVec::blend(Todo, Hb, (Hb + One) & BMaskV);
    }
  }
}

} // namespace

namespace {

/// Builds one table over one row chunk with this variant's kernel.
template <typename Table>
void buildChunk(Table &T, const int32_t *Keys, const float *Vals, int64_t Lo,
                int64_t Hi, AggVersion V, InvecPolicy Policy,
                SimdUtilCounter &Util, ConflictCounter &MeanD1) {
  switch (V) {
  case AggVersion::LinearSerial:
    if constexpr (std::is_same_v<Table, LinearTable>)
      buildLinearSerial(T, Keys + Lo, Vals + Lo, Hi - Lo);
    break;
  case AggVersion::LinearMask:
    if constexpr (std::is_same_v<Table, LinearTable>)
      buildLinearMask(T, Keys + Lo, Vals + Lo, Hi - Lo, Util);
    break;
  case AggVersion::LinearInvec:
    if constexpr (std::is_same_v<Table, LinearTable>)
      buildLinearInvec(T, Keys + Lo, Vals + Lo, Hi - Lo, MeanD1, Policy);
    break;
  case AggVersion::BucketMask:
    if constexpr (std::is_same_v<Table, BucketTable>)
      buildBucket<false>(T, Keys + Lo, Vals + Lo, Hi - Lo, Util, MeanD1);
    break;
  case AggVersion::BucketInvec:
    if constexpr (std::is_same_v<Table, BucketTable>)
      buildBucket<true>(T, Keys + Lo, Vals + Lo, Hi - Lo, Util, MeanD1);
    break;
  }
}

/// Multi-core path: hash tables do not privatize by index range, so each
/// worker builds a full table replica over its row chunk and the per-key
/// partial aggregates are merged in thread-id order afterwards (sum of
/// sums; the groupwise aggregates are associative).  The merge is part of
/// the timed region -- it is the price of cross-core conflict freedom.
template <typename Table>
void runParallel(AggResult &R, const int32_t *Keys, const float *Vals,
                 int64_t N, int64_t Cardinality, AggVersion V,
                 InvecPolicy Policy, int NumThreads,
                 std::vector<SimdUtilCounter> &Utils,
                 std::vector<ConflictCounter> &D1s) {
  const std::vector<int64_t> Bounds =
      core::chunkBounds(N, NumThreads, kLanes);
  std::vector<Table> Tables;
  Tables.reserve(NumThreads);
  for (int T = 0; T < NumThreads; ++T)
    Tables.emplace_back(Cardinality);

  WallTimer W;
  core::ParallelEngine::instance().run(NumThreads, [&](int Tid) {
    buildChunk(Tables[Tid], Keys, Vals, Bounds[Tid], Bounds[Tid + 1], V,
               Policy, Utils[Tid], D1s[Tid]);
  });
  std::map<int32_t, GroupAgg> Merge;
  std::vector<GroupAgg> Part;
  for (int T = 0; T < NumThreads; ++T) {
    Part.clear();
    Tables[T].collect(Part);
    for (const GroupAgg &G : Part) {
      GroupAgg &A = Merge[G.Key];
      A.Key = G.Key;
      A.Cnt += G.Cnt;
      A.Sum += G.Sum;
      A.SumSq += G.SumSq;
    }
  }
  R.Seconds = W.seconds();
  R.Groups.reserve(Merge.size());
  for (const auto &[K, G] : Merge)
    R.Groups.push_back(G);
}

AggResult runAggregationImpl(const int32_t *Keys, const float *Vals,
                             int64_t N, int64_t Cardinality, AggVersion V,
                             const core::RunOptions &O) {
  AggResult R;
  const InvecPolicy Policy = O.Policy;
  const int NumThreads = core::resolveThreads(O.Threads);
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);
  SimdUtilCounter &Util = Utils[0];
  ConflictCounter &MeanD1 = D1s[0];

  const bool Linear = V == AggVersion::LinearSerial ||
                      V == AggVersion::LinearMask ||
                      V == AggVersion::LinearInvec;

  if (NumThreads > 1) {
    if (Linear)
      runParallel<LinearTable>(R, Keys, Vals, N, Cardinality, V, Policy,
                               NumThreads, Utils, D1s);
    else
      runParallel<BucketTable>(R, Keys, Vals, N, Cardinality, V, Policy,
                               NumThreads, Utils, D1s);
  } else if (Linear) {
    LinearTable T(Cardinality);
    WallTimer W;
    switch (V) {
    case AggVersion::LinearSerial:
      buildLinearSerial(T, Keys, Vals, N);
      break;
    case AggVersion::LinearMask:
      buildLinearMask(T, Keys, Vals, N, Util);
      break;
    case AggVersion::LinearInvec:
      buildLinearInvec(T, Keys, Vals, N, MeanD1, Policy);
      break;
    default:
      break;
    }
    R.Seconds = W.seconds();
    T.collect(R.Groups);
  } else {
    BucketTable T(Cardinality);
    WallTimer W;
    if (V == AggVersion::BucketMask)
      buildBucket<false>(T, Keys, Vals, N, Util, MeanD1);
    else
      buildBucket<true>(T, Keys, Vals, N, Util, MeanD1);
    R.Seconds = W.seconds();
    T.collect(R.Groups);
  }

  for (std::size_t T = 1; T < Utils.size(); ++T) {
    Util.merge(Utils[T]);
    MeanD1.merge(D1s[T]);
  }
  std::sort(R.Groups.begin(), R.Groups.end(),
            [](const GroupAgg &A, const GroupAgg &Bx) {
              return A.Key < Bx.Key;
            });
  R.MRowsPerSec = R.Seconds > 0.0
                      ? static_cast<double>(N) / R.Seconds / 1e6
                      : 0.0;
  R.SimdUtil = Util.utilization();
  R.UtilHist = Util.laneHistogram();
  R.MeanD1 = MeanD1.count() ? MeanD1.mean() : 0.0;
  R.D1Hist = MeanD1.histogram();
  return R;
}

} // namespace

// Compiled once per backend variant; the public apps::runAggregation and
// apps::runAggregationWithPolicy forward here through core::dispatch().
AggResult apps::CFV_VARIANT_NS::runAggregation(const int32_t *Keys,
                                               const float *Vals, int64_t N,
                                               int64_t Cardinality,
                                               AggVersion V,
                                               const core::RunOptions &O) {
  return runAggregationImpl(Keys, Vals, N, Cardinality, V, O);
}

//===-- verify/Oracle.cpp - Metamorphic differential oracle ---------------===//

#include "verify/Oracle.h"

#include "core/Api.h"
#include "core/Dispatch.h"
#include "graph/Io.h"
#include "pattern/Classify.h"
#include "service/Json.h"
#include "service/Service.h"
#include "simd/Ops.h"

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>

namespace cfv {
namespace verify {

namespace {

//===----------------------------------------------------------------------===//
// Kernel tier: scalar double reference + tolerance model
//===----------------------------------------------------------------------===//

struct Mismatch {
  int64_t Slot = -1;
  double Want = 0.0;
  double Got = 0.0;
};

/// ULP budget for reassociated float sums: the reference is an in-order
/// double fold, so the divergence of any vectorized/privatized association
/// is bounded by the classic |err| <= (depth) * eps * sum(|x_i|) with a
/// small constant margin, plus an absolute floor covering denormal
/// rounding (each partial can be off by a few FLT_TRUE_MIN even when the
/// relative term vanishes).
inline double addToleranceF32(double SumAbs, int64_t Count) {
  return SumAbs * static_cast<double>(FLT_EPSILON) *
             (8.0 + 2.0 * static_cast<double>(Count)) +
         static_cast<double>(Count + 1) * 4.0 *
             static_cast<double>(FLT_TRUE_MIN);
}

/// In-order double-precision reference fold; \p Inexact selects the
/// tolerance compare (float add), everything else must agree as numbers
/// exactly (which deliberately treats -0.0 == +0.0: IEEE min/max are
/// order-dependent on signed zeros, so both are correct answers).
template <typename Op, typename T>
std::optional<Mismatch> compareTyped(const CaseSpec &Spec,
                                     const int32_t *Idx, const T *Payload,
                                     const T *Got, bool Inexact) {
  const int32_t U = Spec.Universe;
  std::vector<double> Ref(static_cast<size_t>(U),
                          static_cast<double>(Op::template identity<T>()));
  std::vector<double> SumAbs(static_cast<size_t>(U), 0.0);
  std::vector<int64_t> Count(static_cast<size_t>(U), 0);
  for (int64_t I = 0; I < Spec.N; ++I) {
    const auto S = static_cast<size_t>(Idx[I]);
    const double V = static_cast<double>(Payload[I]);
    Ref[S] = Op::template apply<double>(Ref[S], V);
    SumAbs[S] += std::fabs(V);
    ++Count[S];
  }
  for (int32_t S = 0; S < U; ++S) {
    const double Want = Ref[static_cast<size_t>(S)];
    const double G = static_cast<double>(Got[S]);
    if (Inexact) {
      const double Tol = addToleranceF32(SumAbs[static_cast<size_t>(S)],
                                         Count[static_cast<size_t>(S)]);
      if (std::fabs(G - Want) > Tol)
        return Mismatch{S, Want, G};
    } else if (!(G == Want)) {
      return Mismatch{S, Want, G};
    }
  }
  return std::nullopt;
}

std::optional<Mismatch> compareF32(const Workload &W, OpKind Op,
                                   const AlignedVector<float> &Got) {
  const int32_t *Idx = W.Idx.data();
  const float *Val = W.Val.data();
  switch (Op) {
  case OpKind::Add:
    return compareTyped<simd::OpAdd, float>(W.Spec, Idx, Val, Got.data(),
                                            /*Inexact=*/true);
  case OpKind::Min:
    return compareTyped<simd::OpMin, float>(W.Spec, Idx, Val, Got.data(),
                                            false);
  case OpKind::Max:
    return compareTyped<simd::OpMax, float>(W.Spec, Idx, Val, Got.data(),
                                            false);
  }
  return std::nullopt;
}

std::optional<Mismatch> compareI32(const Workload &W,
                                   const AlignedVector<int32_t> &Payload,
                                   OpKind Op,
                                   const AlignedVector<int32_t> &Got) {
  const int32_t *Idx = W.Idx.data();
  const int32_t *Val = Payload.data();
  switch (Op) {
  case OpKind::Add:
    return compareTyped<simd::OpAdd, int32_t>(W.Spec, Idx, Val, Got.data(),
                                              false);
  case OpKind::Min:
    return compareTyped<simd::OpMin, int32_t>(W.Spec, Idx, Val, Got.data(),
                                              false);
  case OpKind::Max:
    return compareTyped<simd::OpMax, int32_t>(W.Spec, Idx, Val, Got.data(),
                                              false);
  }
  return std::nullopt;
}

using F32Fn = AlignedVector<float> (*)(Pipeline, OpKind, const Workload &,
                                       int, InjectedBug);
using I32Fn = AlignedVector<int32_t> (*)(Pipeline, OpKind, const Workload &,
                                         int, InjectedBug);

struct KernelBackend {
  const char *Name;
  F32Fn F32;
  I32Fn I32;
};

std::vector<KernelBackend> kernelBackends(const OracleOptions &O) {
  std::vector<KernelBackend> Out;
  Out.push_back({"scalar", &b_scalar::runPipelineF32,
                 &b_scalar::runPipelineI32});
#if CFV_BUILD_AVX2
  if (O.UseAvx2 && core::avx2Available())
    Out.push_back({"avx2", &b_avx2::runPipelineF32,
                   &b_avx2::runPipelineI32});
#endif
#if CFV_BUILD_AVX512
  if (O.UseAvx512 && core::avx512Available())
    Out.push_back({"avx512", &b_avx512::runPipelineF32,
                   &b_avx512::runPipelineI32});
#endif
  (void)O;
  return Out;
}

std::string corpusPathFor(const OracleOptions &O, const OracleFailure &F) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, F.Spec.Seed);
  return O.CorpusDir + "/cfv-repro-" + Buf + "-" + F.Where + "-" +
         F.Backend + "-" + F.Pipeline +
         (F.Op.empty() ? std::string() : "-" + F.Op) + ".snap";
}

std::optional<OracleFailure> checkKernels(const Workload &W,
                                          const OracleOptions &O) {
  const AlignedVector<int32_t> IPayload = intPayload(W);
  for (const KernelBackend &KB : kernelBackends(O)) {
    for (int PI = 0; PI < kNumPipelines; ++PI) {
      const auto P = static_cast<Pipeline>(PI);
      for (int OI = 0; OI < kNumOpKinds; ++OI) {
        const auto Op = static_cast<OpKind>(OI);
        for (int Chunks : O.ChunkCounts) {
          for (int FloatPass = 1; FloatPass >= 0; --FloatPass) {
            const bool IsFloat = FloatPass == 1;
            std::optional<Mismatch> M;
            if (IsFloat)
              M = compareF32(W, Op, KB.F32(P, Op, W, Chunks, O.Bug));
            else
              M = compareI32(W, IPayload, Op,
                             KB.I32(P, Op, W, Chunks, O.Bug));
            if (!M)
              continue;

            // A combination disagreed: shrink on exactly that
            // combination, then report the minimal case.
            auto StillFails = [&](const Workload &S) {
              if (IsFloat)
                return compareF32(S, Op, KB.F32(P, Op, S, Chunks, O.Bug))
                    .has_value();
              return compareI32(S, intPayload(S), Op,
                                KB.I32(P, Op, S, Chunks, O.Bug))
                  .has_value();
            };
            Workload Small = shrinkWorkload(W, StillFails);
            std::optional<Mismatch> SM;
            if (IsFloat)
              SM = compareF32(Small, Op,
                              KB.F32(P, Op, Small, Chunks, O.Bug));
            else
              SM = compareI32(Small, intPayload(Small), Op,
                              KB.I32(P, Op, Small, Chunks, O.Bug));
            if (!SM)
              SM = M; // defensive: shrinker guarantees this holds

            OracleFailure F;
            F.Spec = W.Spec;
            F.Where = "kernel";
            F.Pipeline = pipelineName(P);
            F.Backend = KB.Name;
            F.Op = std::string(opKindName(Op)) + (IsFloat ? "_f32" : "_i32");
            F.Chunks = Chunks;
            F.Elements = Small.Spec.N;
            F.Slot = SM->Slot;
            F.Want = SM->Want;
            F.Got = SM->Got;
            F.Detail = "pipeline result disagrees with in-order scalar "
                       "reference beyond the ULP budget";
            if (!O.CorpusDir.empty()) {
              const std::string Path = corpusPathFor(O, F);
              if (writeCorpus(Path, Small).ok())
                F.CorpusPath = Path;
            }
            return F;
          }
        }
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Classifier tier: production classifier vs. the naive reference
//===----------------------------------------------------------------------===//

std::optional<OracleFailure> checkClassifier(const Workload &W,
                                             const OracleOptions &O) {
  // The single-scan classifier (pattern::classifyRange) must agree with
  // the std::set/std::map reference the workload was tagged with at
  // generation time; a threshold drift between them is a verification
  // failure even when every kernel still computes the right numbers.
  const pattern::TileClass Got =
      pattern::classifyRange(W.Idx.data(), W.Spec.N).Class;
  if (Got == W.Expected)
    return std::nullopt;

  auto Disagrees = [](const Workload &S) {
    return pattern::classifyRange(S.Idx.data(), S.Spec.N).Class !=
           expectedClass(S.Idx.data(), S.Spec.N);
  };
  const Workload Small = shrinkWorkload(W, Disagrees);
  OracleFailure F;
  F.Spec = W.Spec;
  F.Where = "classifier";
  F.Pipeline = "classify";
  F.Backend = "scalar";
  F.Elements = Small.Spec.N;
  F.Detail = std::string("pattern classifier says ") +
             pattern::tileClassName(Got) +
             " but the naive reference says " +
             pattern::tileClassName(W.Expected);
  if (!O.CorpusDir.empty()) {
    const std::string Path = corpusPathFor(O, F);
    if (writeCorpus(Path, Small).ok())
      F.CorpusPath = Path;
  }
  return F;
}

//===----------------------------------------------------------------------===//
// System tier: cfv::run differential over the lifted graph
//===----------------------------------------------------------------------===//

bool systemValuesAgree(float A, float B, bool Exact) {
  if (std::isinf(A) || std::isinf(B))
    return A == B;
  if (Exact)
    return A == B;
  const double Da = static_cast<double>(A), Db = static_cast<double>(B);
  const double Mag = std::max(std::fabs(Da), std::fabs(Db));
  return std::fabs(Da - Db) <= 1e-5 + 1e-4 * Mag;
}

OracleFailure systemFailure(const Workload &W, const std::string &Tag,
                            const std::string &Backend,
                            const std::string &Detail) {
  OracleFailure F;
  F.Spec = W.Spec;
  F.Where = "system";
  F.Pipeline = Tag;
  F.Backend = Backend;
  F.Elements = W.Spec.N;
  F.Detail = Detail;
  return F;
}

std::optional<OracleFailure> checkSystem(const Workload &W,
                                         const OracleOptions &O) {
  if (W.Spec.N == 0)
    return std::nullopt;
  const graph::EdgeList G = toEdgeList(W, /*Weighted=*/true);

  struct SysApp {
    AppId App;
    std::vector<AppVersion> Versions;
    int Iters;
    bool Exact;
  };
  const SysApp Apps[] = {
      {AppId::PageRank,
       {AppVersion::TilingSerial, AppVersion::Grouping, AppVersion::Mask,
        AppVersion::Invec},
       3,
       false},
      {AppId::Sssp,
       {AppVersion::Mask, AppVersion::Invec, AppVersion::Grouping},
       0,
       true},
      {AppId::Spmv,
       {AppVersion::CsrSerial, AppVersion::Mask, AppVersion::Invec,
        AppVersion::Grouping},
       0,
       false},
  };

  std::vector<core::BackendChoice> BackendChoices = {
      core::BackendChoice::Scalar};
  if (O.UseAvx2 && core::avx2Available())
    BackendChoices.push_back(core::BackendChoice::Avx2);
  if (O.UseAvx512 && core::avx512Available())
    BackendChoices.push_back(core::BackendChoice::Avx512);

  for (const SysApp &A : Apps) {
    AppRequest Ref;
    Ref.App = A.App;
    Ref.Version = AppVersion::Serial;
    Ref.Options.Backend = core::BackendChoice::Scalar;
    Ref.Options.Threads = 1;
    Ref.Options.MaxIterations = A.Iters;
    Ref.Graph = &G;
    Ref.Source = 0;
    Expected<AppResult> RefRes = cfv::run(Ref);
    if (!RefRes)
      return systemFailure(W, std::string(appIdName(A.App)) + "/serial",
                           "scalar",
                           "reference run rejected: " +
                               RefRes.status().message());

    for (AppVersion V : A.Versions) {
      for (core::BackendChoice BC : BackendChoices) {
        for (int Threads : {1, 2}) {
          AppRequest R = Ref;
          R.Version = V;
          R.Options.Backend = BC;
          R.Options.Threads = Threads;
          Expected<AppResult> Res = cfv::run(R);
          const std::string BackTag =
              std::string(BC == core::BackendChoice::Avx512  ? "avx512"
                          : BC == core::BackendChoice::Avx2 ? "avx2"
                                                            : "scalar") +
              "/t" + std::to_string(Threads);
          if (!Res)
            return systemFailure(
                W, std::string(appIdName(A.App)) + "/?", BackTag,
                "run rejected: " + Res.status().message());
          const std::string Tag =
              std::string(appIdName(A.App)) + "/" + Res->VersionName;
          if (Res->Values.size() != RefRes->Values.size())
            return systemFailure(W, Tag, BackTag,
                                 "result size disagrees with serial run");
          for (size_t I = 0; I < Res->Values.size(); ++I) {
            if (!systemValuesAgree(Res->Values[I], RefRes->Values[I],
                                   A.Exact)) {
              OracleFailure F = systemFailure(
                  W, Tag, BackTag,
                  "values disagree with the serial scalar run");
              F.Slot = static_cast<int64_t>(I);
              F.Want = RefRes->Values[I];
              F.Got = Res->Values[I];
              if (!O.CorpusDir.empty()) {
                const std::string Path = corpusPathFor(O, F);
                if (writeCorpus(Path, W).ok())
                  F.CorpusPath = Path;
              }
              return F;
            }
          }
        }
      }
    }
  }

  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Service tier: cold vs. cached serving against the direct facade call
//===----------------------------------------------------------------------===//

std::optional<OracleFailure> checkService(const Workload &W,
                                          const OracleOptions &O) {
  if (W.Spec.N == 0)
    return std::nullopt;
  std::string Dir = O.ScratchDir;
  if (Dir.empty())
    Dir = O.CorpusDir.empty() ? std::string("/tmp") : O.CorpusDir;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, W.Spec.Seed);
  const std::string Path = Dir + "/cfv-verify-service-" + Buf + ".snap";

  const graph::EdgeList G = toEdgeList(W, /*Weighted=*/true);
  if (Status S = graph::writeSnapEdgeList(Path, G); !S.ok())
    return systemFailure(W, "pagerank/serve", "file",
                         "cannot write scratch SNAP file: " + S.message());

  auto fail = [&](const std::string &Detail) {
    std::remove(Path.c_str());
    OracleFailure F = systemFailure(W, "pagerank/serve", "service", Detail);
    F.Where = "service";
    return F;
  };

  service::ServeRequest Req;
  Req.App = "pagerank";
  Req.File = Path;
  Req.Iters = 2;
  Req.Threads = 1;

  service::Service Svc{service::Service::Config{}};
  std::future<service::ServeResponse> Cold = Svc.submit(Req);
  service::ServeResponse ColdR = Cold.get();
  std::future<service::ServeResponse> Warm = Svc.submit(Req);
  service::ServeResponse WarmR = Warm.get();
  Svc.drain();

  if (!ColdR.Ok)
    return fail("cold serve failed: " + ColdR.Error.message());
  if (!WarmR.Ok)
    return fail("cached serve failed: " + WarmR.Error.message());
  if (!WarmR.CacheHit)
    return fail("second identical request missed the dataset cache");

  // The served graph is re-read through graph I/O, so the direct run uses
  // the same round-tripped edge list the service saw.
  Expected<graph::EdgeList> Loaded = graph::readSnapEdgeList(Path);
  if (!Loaded)
    return fail("cannot re-read scratch SNAP file: " +
                Loaded.status().message());
  AppRequest Direct;
  Direct.App = AppId::PageRank;
  Direct.Version = AppVersion::Default;
  Direct.Options.Threads = 1;
  Direct.Options.MaxIterations = 2;
  Direct.Graph = &*Loaded;
  Expected<AppResult> DirectRes = cfv::run(Direct);
  if (!DirectRes)
    return fail("direct run rejected: " + DirectRes.status().message());
  const double DirectSum = resultChecksum(*DirectRes);

  auto close = [](double A, double B) {
    return std::fabs(A - B) <=
           1e-9 * std::max(1.0, std::max(std::fabs(A), std::fabs(B)));
  };
  if (!close(ColdR.Checksum, WarmR.Checksum))
    return fail("cold and cached serve checksums disagree");
  if (!close(ColdR.Checksum, DirectSum))
    return fail("serve checksum disagrees with the direct facade run");
  std::remove(Path.c_str());
  return std::nullopt;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

Workload
shrinkWorkload(Workload W,
               const std::function<bool(const Workload &)> &StillFails) {
  int Evals = 0;
  auto tryCandidate = [&](const Workload &C) {
    if (Evals >= 3000)
      return false;
    ++Evals;
    return StillFails(C);
  };

  // Phase 1: greedy segment deletion, halving segment sizes down to
  // single elements; rescan at the same size after any success.
  int64_t Seg = std::max<int64_t>(1, W.Spec.N / 2);
  while (Seg >= 1) {
    bool Removed = false;
    int64_t Start = 0;
    while (Start < W.Spec.N) {
      const int64_t End = std::min<int64_t>(W.Spec.N, Start + Seg);
      Workload C = W;
      C.Idx.erase(C.Idx.begin() + Start, C.Idx.begin() + End);
      C.Val.erase(C.Val.begin() + Start, C.Val.begin() + End);
      C.Spec.N = static_cast<int64_t>(C.Idx.size());
      if (tryCandidate(C)) {
        W = std::move(C);
        Removed = true; // stay at Start: the next segment slid into place
      } else {
        Start = End;
      }
    }
    if (Seg == 1) {
      if (!Removed)
        break;
    } else {
      Seg /= 2;
    }
  }

  // Phase 2: compact the universe to the indices that remain, in order of
  // first use (preserves the conflict structure exactly).
  {
    Workload C = W;
    std::vector<int32_t> Map(static_cast<size_t>(W.Spec.Universe), -1);
    int32_t Next = 0;
    for (size_t I = 0; I < C.Idx.size(); ++I) {
      int32_t &Slot = Map[static_cast<size_t>(C.Idx[I])];
      if (Slot < 0)
        Slot = Next++;
      C.Idx[I] = Slot;
    }
    C.Spec.Universe = std::max<int32_t>(1, Next);
    if (C.Spec.Universe < W.Spec.Universe && tryCandidate(C))
      W = std::move(C);
  }
  return W;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::string OracleFailure::toJson() const {
  json::ObjectWriter J;
  J.field("ok", false)
      .field("error", "oracle_mismatch")
      .field("tier", Where)
      .field("spec", Spec.toString())
      .field("pipeline", Pipeline)
      .field("backend", Backend)
      .field("op", Op)
      .field("chunks", Chunks)
      .field("elements", Elements)
      .field("slot", Slot)
      .field("want", Want)
      .field("got", Got)
      .field("detail", Detail)
      .field("reproducer", CorpusPath);
  return J.str();
}

std::optional<OracleFailure> checkWorkload(const Workload &W,
                                           const OracleOptions &O) {
  // The classifier check is one scan; it runs for every enabled tier
  // combination.
  if (auto F = checkClassifier(W, O))
    return F;
  if (O.KernelTier)
    if (auto F = checkKernels(W, O))
      return F;
  if (O.SystemTier)
    if (auto F = checkSystem(W, O))
      return F;
  if (O.ServiceTier)
    if (auto F = checkService(W, O))
      return F;
  return std::nullopt;
}

} // namespace verify
} // namespace cfv

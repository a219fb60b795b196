//===- perfbench/src/PaperBatch.cpp - The paper-batch workload ------------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
//
// A closed loop in one process, one job at a time: the paper's Fig 8-13
// applications in their default (in-vector, adaptive) versions on the
// three graph datasets at scale 1, plus two 2-thread jobs (and spmv's
// 1-thread twin) that keep the parallel engine's partition + merge path
// measured.  Set-up loads and
// prepares every dataset (graph, inspector and pattern work); a warm-up
// pass finishes lazy prep and computes each job's reference digest with a
// fresh cfv::run on the bare edge list (no shared schedules), so the
// timed passes check the cached-schedule path against the uncached one.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"

#include "core/Api.h"
#include "core/CostModel.h"
#include "graph/Datasets.h"
#include "graph/Prepared.h"
#include "util/Prng.h"
#include "workload/KeyGen.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <malloc.h>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

using namespace cfv;
using namespace perfbench;

namespace {

constexpr double kScale = 1.0;
constexpr int kTileBits = 16; // PageRankOptions / FrontierOptions default
/// Set-up repetitions behind setup_s (their median).
constexpr int kSetupRepeats = 5;
constexpr int kMinPasses = 5;
/// Per-job latency limit behind slo_share (also in BENCHMARK.json).
constexpr double kJobSloMs = 500.0;

/// How the jobs use each dataset slot (see Layers.h for the slots).
struct DatasetUse {
  bool Weighted;      ///< some job on it needs edge weights
  bool StreamPattern; ///< an spmv job reads its row-stream classification
};

const DatasetUse kDatasetUse[kNumDatasets] = {
    {true, true},   // higgs
    {true, true},   // pokec
    {false, false}, // amazon
};

struct LoadedDataset {
  std::unique_ptr<graph::PreparedGraph> Graph;
  double LoadS = 0, CsrS = 0, StreamS = 0;
};

/// Everything set-up produces.
struct Inputs {
  LoadedDataset Ds[kNumDatasets];
  AlignedVector<int32_t> AggKeys;
  AlignedVector<float> AggVals;
  AlignedVector<float> X[kNumDatasets]; ///< spmv input vectors
};

struct Job {
  std::string Name;
  AppRequest Req;
  /// Bytes a single update moves (indices, gathered operands, the
  /// read-modify-write of the accumulator), from the array element
  /// sizes: kernel.bytes_computed is a computed figure, not a measured
  /// one.
  int BytesPerUpdate = 0;
  double Reference = 0.0;
  std::vector<double> PrepS, KernelS;
  AppResult Last;
};

int datasetIndex(const char *Short) {
  for (int I = 0; I < kNumDatasets; ++I)
    if (std::string(datasetShort(I)) == Short)
      return I;
  return -1;
}

/// Loads and prepares every dataset once; per-call times land in \p In.
/// Spans: one per public call, under \p Parent.
Status setUpOnce(Inputs &In, uint64_t Seed, Tracer &T,
                         uint64_t Parent) {
  for (int I = 0; I < kNumDatasets; ++I) {
    const std::string Sfx = datasetShort(I);
    LoadedDataset &D = In.Ds[I];
    // Drop the previous repetition's copy first and hand its pages back,
    // so peak RSS is one prepared set, not an accumulation of copies.
    D.Graph.reset();
    malloc_trim(0);
    ScopedSpan LoadSp(T, "load:" + Sfx, "graph", Parent, 0);
    Expected<graph::Dataset> G = graph::makeGraphDataset(
        datasetName(I), kScale, kDatasetUse[I].Weighted);
    D.LoadS = LoadSp.close();
    if (!G.ok())
      return G.status();
    D.Graph = std::make_unique<graph::PreparedGraph>(std::move(G->Edges));
    {
      ScopedSpan Sp(T, "csr:" + Sfx, "graph", Parent, 0);
      D.Graph->csr();
      D.CsrS = Sp.close();
    }
    {
      // PreparedGraph::tiling builds the inspector schedule and attaches
      // its pattern classification in one call.
      ScopedSpan Sp(T, "tiling+classify:" + Sfx, "inspector", Parent, 0);
      D.Graph->tiling(kTileBits);
    }
    if (kDatasetUse[I].StreamPattern) {
      ScopedSpan Sp(T, "classify_stream:" + Sfx, "pattern", Parent, 0);
      D.Graph->streamPattern();
      D.StreamS = Sp.close();
    }
  }
  ScopedSpan Sp(T, "inputs", "bench", Parent, 0);
  const int64_t AggRows = 2000000;
  In.AggKeys = workload::genKeys(workload::KeyDist::Zipf, AggRows, 1 << 12,
                                 Seed * 0x9E3779B97F4A7C15ULL + 13);
  In.AggVals = workload::genValues(AggRows, Seed + 0xA66);
  Xoshiro256 Rng(Seed ^ 0x5B3Cu);
  for (int I = 0; I < kNumDatasets; ++I) {
    const int32_t N = In.Ds[I].Graph->edges().NumNodes;
    In.X[I].resize(static_cast<std::size_t>(N));
    for (float &V : In.X[I])
      V = static_cast<float>(Rng.nextDouble());
  }
  return Status();
}

/// A seeded source vertex among the 64 highest out-degree vertices, so
/// every seed's traversal reaches the giant component (equal work).
int32_t pickSource(const graph::PreparedGraph &G, Xoshiro256 &Rng) {
  const graph::Csr &C = G.csr();
  std::vector<int32_t> Ids(static_cast<std::size_t>(C.NumNodes));
  std::iota(Ids.begin(), Ids.end(), 0);
  const std::size_t K = std::min<std::size_t>(64, Ids.size());
  std::partial_sort(Ids.begin(), Ids.begin() + static_cast<long>(K), Ids.end(),
                    [&](int32_t A, int32_t B) {
                      return C.degree(A) != C.degree(B)
                                 ? C.degree(A) > C.degree(B)
                                 : A < B;
                    });
  return Ids[Rng.nextBounded(static_cast<uint32_t>(K))];
}

std::vector<Job> makeJobs(Inputs &In, uint64_t Seed) {
  Xoshiro256 Rng(Seed ^ 0x10B5u);
  std::vector<Job> Jobs;
  auto graphJob = [&](const char *Name, AppId App, const char *Ds,
                      int Threads, int Bytes) {
    Job J;
    J.Name = Name;
    J.Req.App = App;
    J.Req.Options.Threads = Threads;
    const int I = datasetIndex(Ds);
    J.Req.Prepared = In.Ds[I].Graph.get();
    if (App == AppId::Sssp || App == AppId::Sswp || App == AppId::Bfs)
      J.Req.Source = pickSource(*In.Ds[I].Graph, Rng);
    if (App == AppId::Spmv) {
      J.Req.X = In.X[I].data();
      J.Req.Options.MaxIterations = 10; // the serving layer's default
    }
    J.BytesPerUpdate = Bytes;
    Jobs.push_back(std::move(J));
  };
  // Bytes per update: 4-byte src/dst indices, 4-byte weights where read,
  // 4-byte gathered operands, 8 for the accumulator read + write.
  graphJob("pagerank.higgs", AppId::PageRank, "higgs", 1, 24);
  graphJob("pagerank.pokec", AppId::PageRank, "pokec", 1, 24);
  graphJob("pagerank.amazon", AppId::PageRank, "amazon", 1, 24);
  graphJob("sssp.higgs", AppId::Sssp, "higgs", 1, 28);
  graphJob("sswp.pokec", AppId::Sswp, "pokec", 1, 28);
  graphJob("wcc.amazon", AppId::Wcc, "amazon", 1, 20);
  graphJob("bfs.higgs", AppId::Bfs, "higgs", 1, 20);
  graphJob("spmv.pokec", AppId::Spmv, "pokec", 1, 24);
  {
    Job J;
    J.Name = "moldyn";
    J.Req.App = AppId::Moldyn;
    J.Req.Moldyn.Cells = 10; // fig12 panel (a) at scale 1
    J.Req.Moldyn.Seed = Seed * 0x2545F4914F6CDD1DULL + 7;
    J.Req.Options.Threads = 1;
    J.Req.Options.MaxIterations = 20;
    // Pair indices 8, two gathered positions 24, two force RMWs 48.
    J.BytesPerUpdate = 80;
    Jobs.push_back(std::move(J));
  }
  {
    Job J;
    J.Name = "agg.zipf";
    J.Req.App = AppId::Agg;
    J.Req.Keys = In.AggKeys.data();
    J.Req.Vals = In.AggVals.data();
    J.Req.Rows = static_cast<int64_t>(In.AggKeys.size());
    J.Req.Cardinality = 1 << 12;
    J.Req.Options.Threads = 1;
    J.BytesPerUpdate = 16; // key 4, value 4, accumulator RMW 8
    Jobs.push_back(std::move(J));
  }
  // spmv.higgs is the 1-thread twin of spmv.higgs.2t (as pagerank.higgs
  // is of pagerank.higgs.2t), for core.speedup_2t.  It also makes the job
  // count odd, so the median job latency falls inside one job's samples
  // rather than in the gap between two jobs.
  graphJob("spmv.higgs", AppId::Spmv, "higgs", 1, 24);
  graphJob("pagerank.higgs.2t", AppId::PageRank, "higgs", 2, 24);
  graphJob("spmv.higgs.2t", AppId::Spmv, "higgs", 2, 24);
  return Jobs;
}

/// The uncached twin of \p R: same inputs, no shared schedules.
AppRequest bare(const AppRequest &R) {
  AppRequest B = R;
  if (B.Prepared) {
    B.Graph = &B.Prepared->edges();
    B.Prepared = nullptr;
  }
  return B;
}

int lanesOf(const AppResult &R) {
  return R.Backend == core::BackendKind::Avx2 ? 8 : 16;
}

} // namespace

int perfbench::runPaperBatch(const Args &A, Tracer &T, Outcome &Out) {
  // --- Set-up: load + prep of every dataset, repeated; median reported.
  // The first repetition feeds the timed passes and the others run after
  // them, so the median samples the host at both ends of the run: the
  // same pass ran 0.69-1.0 s at different times on a 4-vCPU VM.
  Inputs In;
  std::vector<double> SetupS;
  auto setUp = [&]() {
    ScopedSpan Sp(T, "setup", "bench", 0, 0);
    const Status Ok = setUpOnce(In, A.Seed, T, Sp.id());
    if (!Ok.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   Ok.toString().c_str());
      return false;
    }
    SetupS.push_back(Sp.close());
    return true;
  };
  if (!setUp())
    return 1;

  // --- Warm-up pass: lazy prep finishes, reference digests computed on
  // the uncached path.
  std::vector<Job> Jobs = makeJobs(In, A.Seed);
  for (Job &J : Jobs) {
    Expected<AppResult> Ref = cfv::run(bare(J.Req));
    Expected<AppResult> Warm = cfv::run(J.Req);
    if (!Ref.ok() || !Warm.ok()) {
      std::fprintf(stderr, "perfbench: %s rejected: %s\n", J.Name.c_str(),
                   (!Ref.ok() ? Ref.status() : Warm.status())
                       .toString()
                       .c_str());
      return 1;
    }
    J.Reference = resultChecksum(*Ref);
    ++Out.Attempted;
    if (!digestsAgree(J.Reference, resultChecksum(*Warm))) {
      std::fprintf(stderr,
                   "perfbench: %s: cached-schedule digest %.17g != "
                   "uncached %.17g\n",
                   J.Name.c_str(), resultChecksum(*Warm), J.Reference);
      ++Out.Failed;
      ++Out.Mismatched;
    }
  }

  // --- Timed passes.  A traced run alternates traced and untraced
  // passes; their medians give trace.overhead_share.
  const Rusage R0 = Rusage::now();
  std::vector<double> PassS, TracedPassS, JobMs;
  int64_t SloOk = 0, Timed = 0;
  const double Start = nowSeconds();
  uint64_t ReqId = 0;
  for (int P = 0; P < kMinPasses || nowSeconds() - Start < A.Seconds; ++P) {
    const bool TracedPass = A.Traced && P % 2 == 0;
    T.setActive(TracedPass || !A.Traced);
    ScopedSpan Pass(T, "pass", "bench", 0, 0);
    for (Job &J : Jobs) {
      ++ReqId;
      ++Timed;
      ++Out.Attempted;
      ScopedSpan Sp(T, "run:" + J.Name, "apps", Pass.id(), ReqId);
      Expected<AppResult> Res = cfv::run(J.Req);
      const double Wall = Sp.close();
      JobMs.push_back(Wall * 1e3);
      if (!Res.ok()) {
        ++Out.Failed;
        continue;
      }
      const double Sum = resultChecksum(*Res);
      if (!digestsAgree(J.Reference, Sum)) {
        std::fprintf(stderr, "perfbench: %s digest %.17g != reference %.17g\n",
                     J.Name.c_str(), Sum, J.Reference);
        ++Out.Failed;
        ++Out.Mismatched;
        continue;
      }
      if (Wall * 1e3 <= kJobSloMs)
        ++SloOk;
      T.record("prep", "apps", Sp.id(), ReqId, Sp.start(), Res->PrepSeconds);
      T.record("kernel", "kernel", Sp.id(), ReqId,
               Sp.start() + Res->PrepSeconds, Res->ComputeSeconds);
      J.PrepS.push_back(Res->PrepSeconds);
      J.KernelS.push_back(Res->ComputeSeconds);
      J.Last = std::move(*Res);
    }
    (TracedPass ? TracedPassS : PassS).push_back(Pass.close());
  }
  T.setActive(true);
  const Rusage Delta = Rusage::now() - R0;
  const double PassMedS = median(PassS);
  std::fprintf(stderr,
               "paper-batch: %zu untraced passes of %zu jobs, median %.4f s; "
               "%zu job samples\n",
               PassS.size(), Jobs.size(), PassMedS, JobMs.size());

  if (!A.Traced) {
    const double PeakRssMb = peakRssMb();
    // These replace the graphs under the jobs, which do not run again.
    for (int R = 1; R < kSetupRepeats; ++R)
      if (!setUp())
        return 1;
    std::fprintf(stderr, "set-up (s):");
    for (double V : SetupS)
      std::fprintf(stderr, " %.4f", V);
    std::fprintf(stderr, "\n");
    Out.add("setup_s", median(SetupS), "s");
    Out.add("peak_rss_mb", PeakRssMb, "MB");
    Out.add("ops_per_s", static_cast<double>(Jobs.size()) / PassMedS, "1/s");
    Out.add("lat_p50_ms", percentile(JobMs, 0.50), "ms");
    // p95 on every workload: a 40 s run times 400-750 jobs, 20-37 beyond.
    Out.add("lat_tail_ms", percentile(JobMs, 0.95), "ms");
    Out.add("slo_share",
            static_cast<double>(SloOk) / static_cast<double>(Timed),
            "share");
    Out.add("batch_pass_s", PassMedS, "s", /*Listed=*/false);
    return 0;
  }

  // --- Per-layer numbers (traced run only).  service and net stay 0:
  // the jobs run in process.
  LayerFigures L;
  for (int I = 0; I < kNumDatasets; ++I) {
    const LoadedDataset &D = In.Ds[I];
    const std::string Sfx = datasetShort(I);
    L.Ds[I].LoadMs = D.LoadS * 1e3;
    L.Ds[I].CsrMs = D.CsrS * 1e3;
    measureTiling(*D.Graph, kTileBits, L.Ds[I], T, Sfx);
    if (kDatasetUse[I].StreamPattern)
      Out.add("pattern.stream_classify_ms." + Sfx, D.StreamS * 1e3, "ms",
              false);
  }
  // Per-job figures are report-only (stderr): BENCHMARK.json lists the
  // per-op aggregates every workload reports.
  std::map<std::string, double> KernelMs;
  for (const Job &J : Jobs) {
    const AppResult &R = J.Last;
    const double Updates = static_cast<double>(R.EdgesProcessed);
    for (std::size_t K = 0; K < J.KernelS.size(); ++K)
      L.Kernel.add(J.PrepS[K], J.KernelS[K], Updates, R.SimdUtil, R.MeanD1,
                   lanesOf(R));
    KernelTally One;
    One.add(median(J.PrepS), median(J.KernelS), Updates, R.SimdUtil,
            R.MeanD1, lanesOf(R));
    const double Ms = One.KernelS * 1e3;
    KernelMs[J.Name] = Ms;
    Out.add("apps.prep_ms." + J.Name, One.PrepS * 1e3, "ms", false);
    Out.add("kernel.ms." + J.Name, Ms, "ms", false);
    Out.add("kernel.ns_per_update." + J.Name,
            Updates > 0 ? Ms * 1e6 / Updates : 0.0, "ns", false);
    Out.add("kernel.updates." + J.Name, Updates, "count", false);
    Out.add("kernel.simd_util." + J.Name, R.SimdUtil, "share", false);
    Out.add("kernel.mean_d1." + J.Name, R.MeanD1, "lanes", false);
    Out.add("kernel.ns_per_model_instr." + J.Name,
            One.ModelInstr > 0 ? Ms * 1e6 / One.ModelInstr : 0.0, "ns", false);
    Out.add("kernel.alg2." + J.Name, R.UsedAlg2 ? 1.0 : 0.0, "bool", false);
    Out.add("kernel.model_instr_per_vec." + J.Name, core::alg1Cost(R.MeanD1),
            "instr", false);
    Out.add("kernel.bytes_computed." + J.Name, Updates * J.BytesPerUpdate,
            "bytes", false);
  }
  Out.add("core.speedup_2t.pagerank.higgs",
          KernelMs["pagerank.higgs"] / KernelMs["pagerank.higgs.2t"], "x",
          false);
  Out.add("core.speedup_2t.spmv.higgs",
          KernelMs["spmv.higgs"] / KernelMs["spmv.higgs.2t"], "x", false);
  L.Os = Delta;
  L.TraceOverhead = median(TracedPassS) / std::max(PassMedS, 1e-12) - 1.0;
  addLayerMetrics(Out, L);
  return 0;
}

//===- tools/cfv_bench_compare.cpp - Perf-regression gate -----------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two BENCH_<rev>.json files (scripts/bench_collect.sh output)
/// and fails when the newer one regressed past a noise threshold.  This
/// is the gate that turns the per-revision perf trajectory into an
/// enforced contract: CI collects a fresh BENCH file, compares it to the
/// committed BENCH_baseline.json, and a regression fails the job the same
/// way a broken test would.
///
/// Rows pair up by a stable key built from their identifying fields
/// (bench, name, app, version, family, tile_class, backend, clients,
/// threads, ...), never by position -- reordering benches or inserting a
/// new one must not misalign the comparison.  Each paired row is judged
/// on its highest-priority metric present in both files (real_ns,
/// cpu_ns, p99_seconds, ..., requests_per_second), with lower-is-better
/// or higher-is-better direction per metric.
///
/// Exit codes:
///   0  no regression beyond threshold (improvements always pass)
///   1  at least one regression beyond threshold
///   2  malformed input, schema mismatch, or usage error
///
/// Rows present in only one file warn to stderr but never fail: renaming
/// a bench or adding a new one is not a perf regression.
///
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using cfv::json::Value;

namespace {

/// Fields that identify a row rather than measure it.  The order here is
/// the order they appear in the key, so keys are stable and readable.
const char *const kKeyFields[] = {
    "bench",   "name",     "app",      "version",  "class",
    "family",  "tile_class", "backend", "distribution", "shedding",
    "mode",    "clients",  "threads",  "scale",    "n",
};

/// Metrics in gating priority order.  LowerIsBetter decides the
/// regression direction; Threshold (percent) is the default noise
/// allowance, overridable via --threshold / --metric NAME=PCT.
struct MetricSpec {
  const char *Name;
  bool LowerIsBetter;
};

const MetricSpec kMetrics[] = {
    {"real_ns", true},
    {"cpu_ns", true},
    {"p99_seconds", true},
    {"p95_seconds", true},
    {"p50_seconds", true},
    {"kernel_seconds", true},
    {"compute_seconds", true},
    {"wall_seconds", true},
    {"cold_seconds", true},
    {"warm_seconds", true},
    {"seconds", true},
    {"ns_per_element", true},
    {"requests_per_second", false},
    {"speedup", false},
};

std::string rowKey(const Value &Row) {
  std::string Key;
  for (const char *F : kKeyFields) {
    const Value *V = Row.find(F);
    if (!V)
      continue;
    if (!Key.empty())
      Key += " ";
    Key += F;
    Key += "=";
    if (V->isString()) {
      Key += V->str();
    } else if (V->isNumber()) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", V->number());
      Key += Buf;
    } else if (V->isBool()) {
      Key += V->boolean() ? "true" : "false";
    }
  }
  return Key;
}

/// Reads a whole file; empty optional-style: Ok=false on I/O failure.
bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  const bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

struct BenchFile {
  std::string Rev;
  int64_t Schema = 0;
  std::map<std::string, Value> Rows;
};

/// Parses one BENCH_<rev>.json into keyed rows.  Returns false (after
/// printing a diagnostic) on I/O failure, parse failure, or a missing
/// "results" array -- all exit-2 conditions for the gate.
bool loadBenchFile(const char *Path, BenchFile &Out) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "cfv_bench_compare: cannot read %s\n", Path);
    return false;
  }
  auto Parsed = cfv::json::parse(Text);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "cfv_bench_compare: %s: %s\n", Path,
                 Parsed.status().toString().c_str());
    return false;
  }
  const Value &Doc = Parsed.value();
  const Value *Results = Doc.find("results");
  if (!Results || !Results->isArray()) {
    std::fprintf(stderr, "cfv_bench_compare: %s: no \"results\" array\n",
                 Path);
    return false;
  }
  Out.Rev = Doc.getString("rev", "unknown");
  Out.Schema = Doc.getInt("schema", 0);
  for (const Value &Row : Results->array()) {
    if (!Row.isObject())
      continue;
    const std::string Key = rowKey(Row);
    if (Key.empty()) {
      std::fprintf(stderr,
                   "cfv_bench_compare: %s: row with no identifying fields, "
                   "skipped\n",
                   Path);
      continue;
    }
    if (!Out.Rows.emplace(Key, Row).second)
      std::fprintf(stderr, "cfv_bench_compare: %s: duplicate row key '%s', "
                           "keeping the first\n",
                   Path, Key.c_str());
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: cfv_bench_compare [options] BASELINE.json CURRENT.json\n"
      "\n"
      "Compares two bench_collect.sh outputs; exits 1 when CURRENT\n"
      "regressed past the noise threshold on any paired row, 2 on\n"
      "malformed input or a bench-suite schema mismatch, 0 otherwise.\n"
      "\n"
      "  --threshold PCT     default noise allowance in percent (default 20)\n"
      "  --metric NAME=PCT   per-metric threshold override (repeatable)\n"
      "  --verbose           print every paired row, not just regressions\n");
}

} // namespace

int main(int argc, char **argv) {
  double DefaultThreshold = 20.0;
  std::map<std::string, double> PerMetric;
  bool Verbose = false;
  std::vector<const char *> Files;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strcmp(A, "--threshold") == 0 && I + 1 < argc) {
      DefaultThreshold = std::atof(argv[++I]);
    } else if (std::strcmp(A, "--metric") == 0 && I + 1 < argc) {
      const char *Spec = argv[++I];
      const char *Eq = std::strchr(Spec, '=');
      if (!Eq || Eq == Spec) {
        std::fprintf(stderr, "cfv_bench_compare: bad --metric '%s' "
                             "(want NAME=PCT)\n",
                     Spec);
        return 2;
      }
      PerMetric[std::string(Spec, static_cast<size_t>(Eq - Spec))] =
          std::atof(Eq + 1);
    } else if (std::strcmp(A, "--verbose") == 0) {
      Verbose = true;
    } else if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      usage();
      return 0;
    } else if (A[0] == '-') {
      std::fprintf(stderr, "cfv_bench_compare: unknown option '%s'\n", A);
      usage();
      return 2;
    } else {
      Files.push_back(A);
    }
  }
  if (Files.size() != 2) {
    usage();
    return 2;
  }

  BenchFile Base, Cur;
  if (!loadBenchFile(Files[0], Base) || !loadBenchFile(Files[1], Cur))
    return 2;

  // Cross-schema comparisons are meaningless: the suite itself changed
  // shape (different workloads, different request counts), so a delta
  // says nothing about the code.  Refuse rather than mislead.
  if (Base.Schema != Cur.Schema) {
    std::fprintf(stderr,
                 "cfv_bench_compare: bench-suite schema mismatch "
                 "(baseline %lld, current %lld); re-collect the baseline\n",
                 static_cast<long long>(Base.Schema),
                 static_cast<long long>(Cur.Schema));
    return 2;
  }

  std::printf("cfv_bench_compare: baseline %s (%zu rows) vs current %s "
              "(%zu rows), default threshold %.1f%%\n",
              Base.Rev.c_str(), Base.Rows.size(), Cur.Rev.c_str(),
              Cur.Rows.size(), DefaultThreshold);

  int Regressions = 0, Compared = 0, Improved = 0;
  for (const auto &KV : Base.Rows) {
    const auto It = Cur.Rows.find(KV.first);
    if (It == Cur.Rows.end()) {
      std::fprintf(stderr,
                   "cfv_bench_compare: warning: row missing from current: "
                   "%s\n",
                   KV.first.c_str());
      continue;
    }
    // Highest-priority metric present (and positive) in both rows.
    const MetricSpec *Spec = nullptr;
    double B = 0.0, C = 0.0;
    for (const MetricSpec &M : kMetrics) {
      const Value *BV = KV.second.find(M.Name);
      const Value *CV = It->second.find(M.Name);
      if (BV && CV && BV->isNumber() && CV->isNumber() &&
          BV->number() > 0.0 && CV->number() > 0.0) {
        Spec = &M;
        B = BV->number();
        C = CV->number();
        break;
      }
    }
    if (!Spec) {
      std::fprintf(stderr,
                   "cfv_bench_compare: warning: no comparable metric for "
                   "%s\n",
                   KV.first.c_str());
      continue;
    }
    ++Compared;
    // Positive delta = worse, in percent of baseline.
    const double Delta =
        (Spec->LowerIsBetter ? (C - B) : (B - C)) / B * 100.0;
    const auto Ovr = PerMetric.find(Spec->Name);
    const double Threshold =
        Ovr != PerMetric.end() ? Ovr->second : DefaultThreshold;
    const bool Regressed = Delta > Threshold;
    if (Regressed)
      ++Regressions;
    else if (Delta < 0.0)
      ++Improved;
    if (Regressed || Verbose)
      std::printf("%s  %s: %s %g -> %g (%+.1f%% %s, threshold %.1f%%)\n",
                  Regressed ? "REGRESSION" : "ok        ",
                  KV.first.c_str(), Spec->Name, B, C, Delta,
                  Spec->LowerIsBetter ? "slower" : "lost", Threshold);
  }
  for (const auto &KV : Cur.Rows)
    if (Base.Rows.find(KV.first) == Base.Rows.end())
      std::fprintf(stderr,
                   "cfv_bench_compare: warning: new row not in baseline: "
                   "%s\n",
                   KV.first.c_str());

  std::printf("cfv_bench_compare: %d compared, %d improved, %d regressed\n",
              Compared, Improved, Regressions);
  return Regressions > 0 ? 1 : 0;
}
